package capesd

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSessionConfig throws arbitrary JSON at the session-config
// path an operator drives over the control plane: strict decode →
// Validate → withDefaults → engineConfig. None of those stages may
// panic, whatever the bytes — a panic here is a remote crash of the
// whole daemon via POST /sessions. A config that survives Validate
// must also survive defaulting re-validation: Validate is the only
// gate between network input and engine construction, so anything it
// accepts has to be safe to build from (engineConfig may still reject
// semantic problems, but only with an error).
func FuzzSessionConfig(f *testing.F) {
	seeds := []string{
		// Minimal valid config.
		`{"name": "a", "clients": 1}`,
		// Every supervision knob at a non-default value.
		`{"name": "sup", "clients": 2, "tick_deadline_ms": 250, "max_rollbacks": 5,
		  "rollback_backoff_ms": 50, "supervise_every_ms": -1, "max_frames_per_sec": 100,
		  "divergence": {"loss_explode_factor": 50, "min_steps": 10, "min_points": 4,
		                 "reward_collapse_factor": 4, "probe_every_steps": 128}}`,
		// Rich config touching the rest of the surface.
		`{"name": "full", "clients": 3, "pis_per_client": 4, "obs_ticks": 2, "seed": 7,
		  "training": true, "tuning": true, "checkpoint_dir": "/tmp/x", "history_cap": 64,
		  "tunables": [{"name": "k", "min": 0, "max": 10, "step": 1, "default": 5}],
		  "objective": {"type": "sum", "indices": [0, 1]}, "reward_mode": "absolute"}`,
		`{"name": "cl", "clients": 1, "cluster": {"role": "leader", "listen": ":0"}}`,
		// Invalid shapes the path must reject without panicking. The
		// pipeline knob is gone, so the strict decoder refuses it.
		`{"name": "pipe", "clients": 1, "pipeline": true}`,
		`{"name": "bad", "clients": 1, "tick_deadline_ms": -1}`,
		`{"name": "bad", "clients": 1, "supervise_every_ms": -2}`,
		`{"name": "", "clients": 0}`,
		`{"clients": 1e100}`,
		`{"name": "o", "clients": 1, "objective": {"type": "throughput", "read_offset": 9999}}`,
		`{"name": "t", "clients": 1, "tunables": [{"name": "inv", "min": 5, "max": 1}]}`,
		`[]`,
		`null`,
		`{`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc SessionConfig
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields() // as POST /sessions and LoadConfig decode
		if err := dec.Decode(&sc); err != nil {
			return // rejected at decode, fine
		}
		if err := sc.Validate(); err != nil {
			return // rejected at validation, fine
		}
		def := sc.withDefaults()
		if err := def.Validate(); err != nil {
			t.Fatalf("config valid before withDefaults, invalid after: %v\nconfig: %s", err, data)
		}
		// engineConfig may error (e.g. objective offsets outside the frame
		// layout) but must never panic.
		_, _ = def.engineConfig()
	})
}
