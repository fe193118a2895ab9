package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"--- table1 ---", "Table 1: hyperparameters", "minibatch size", "(table1 completed in"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "--- fig2 ---") {
		t.Errorf("table1 alone ran fig2:\n%s", got)
	}
}

// TestRunRejectsUnknownExperiment: a misspelt name anywhere in the list
// is an error named in the message, and nothing runs first.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-experiment", "fig2,fgi3"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"fgi3"`) {
		t.Fatalf("err = %v, want one naming \"fgi3\"", err)
	}
	if out.Len() != 0 {
		t.Fatalf("ran before rejecting the list:\n%s", out.String())
	}
}
