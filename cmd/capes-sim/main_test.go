package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadArguments: each bad input is an error before any
// cluster dials the daemon.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad randrw ratio", []string{"-workload", "randrw-x"}, `bad randrw ratio "randrw-x"`},
		{"unknown workload", []string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{"empty session list", []string{"-sessions", " , "}, "-sessions lists no addresses"},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined: -no-such-flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote to stdout: %q", stdout.String())
			}
		})
	}
}
