package capesd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
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
// validSessionSeeds maps every key path of a session config (the
// sessions[] rows of README's capesd configuration reference, without
// the "sessions[]." prefix) to a valid session that sets that key to a
// non-default value. TestValidSessionSeeds holds the map to the struct.
var validSessionSeeds = map[string]string{
	"name":                              `{"name": "named", "clients": 1}`,
	"listen":                            `{"name": "a", "clients": 1, "listen": "127.0.0.1:7070"}`,
	"clients":                           `{"name": "a", "clients": 5}`,
	"pis_per_client":                    `{"name": "a", "clients": 1, "pis_per_client": 4}`,
	"obs_ticks":                         `{"name": "a", "clients": 1, "obs_ticks": 2}`,
	"checkpoint_dir":                    `{"name": "a", "clients": 1, "checkpoint_dir": "/tmp/x"}`,
	"seed":                              `{"name": "a", "clients": 1, "seed": 7}`,
	"monitor_only":                      `{"name": "a", "clients": 1, "monitor_only": true}`,
	"exploit":                           `{"name": "a", "clients": 1, "exploit": true}`,
	"tunables":                          `{"name": "a", "clients": 1, "tunables": [{"name": "k", "min": 0, "max": 10, "step": 1, "default": 5}]}`,
	"tunables[].name":                   `{"name": "a", "clients": 1, "tunables": [{"name": "w", "min": 1, "max": 9, "step": 2, "default": 3}]}`,
	"tunables[].min":                    `{"name": "a", "clients": 1, "tunables": [{"name": "k", "min": -4, "max": 4, "step": 1, "default": 0}]}`,
	"tunables[].max":                    `{"name": "a", "clients": 1, "tunables": [{"name": "k", "min": 0, "max": 100, "step": 10, "default": 50}]}`,
	"tunables[].step":                   `{"name": "a", "clients": 1, "tunables": [{"name": "k", "min": 0, "max": 1, "step": 0.25, "default": 0.5}]}`,
	"tunables[].default":                `{"name": "a", "clients": 1, "tunables": [{"name": "k", "min": 0, "max": 10, "step": 1, "default": 9}]}`,
	"objective":                         `{"name": "a", "clients": 1, "objective": {"type": "throughput"}}`,
	"objective.type":                    `{"name": "a", "clients": 2, "objective": {"type": "sum", "indices": [0]}}`,
	"objective.read_offset":             `{"name": "a", "clients": 1, "objective": {"type": "throughput", "read_offset": 1, "write_offset": 3}}`,
	"objective.write_offset":            `{"name": "a", "clients": 1, "objective": {"type": "throughput", "read_offset": 2, "write_offset": 4}}`,
	"objective.indices":                 `{"name": "a", "clients": 2, "objective": {"type": "sum", "indices": [0, 1, 12]}}`,
	"reward_mode":                       `{"name": "a", "clients": 1, "reward_mode": "absolute"}`,
	"cluster":                           `{"name": "a", "clients": 1, "cluster": {"role": "leader", "listen": ":0"}}`,
	"cluster.role":                      `{"name": "a", "clients": 1, "cluster": {"role": "follower", "leader": "x:1", "rank": 1}}`,
	"cluster.listen":                    `{"name": "a", "clients": 1, "cluster": {"role": "leader", "listen": "127.0.0.1:7710"}}`,
	"cluster.leader":                    `{"name": "a", "clients": 1, "cluster": {"role": "follower", "leader": "leader-host:7710", "rank": 1}}`,
	"cluster.rank":                      `{"name": "a", "clients": 1, "cluster": {"role": "follower", "leader": "x:1", "rank": 3}}`,
	"cluster.collect_timeout_ms":        `{"name": "a", "clients": 1, "cluster": {"role": "leader", "listen": ":0", "collect_timeout_ms": 250}}`,
	"cluster.sync_timeout_ms":           `{"name": "a", "clients": 1, "cluster": {"role": "follower", "leader": "x:1", "rank": 1, "sync_timeout_ms": 1500}}`,
	"liveness_timeout_ms":               `{"name": "a", "clients": 1, "liveness_timeout_ms": 80}`,
	"train_start_ticks":                 `{"name": "a", "clients": 1, "train_start_ticks": 16}`,
	"train_every":                       `{"name": "a", "clients": 1, "train_every": 8}`,
	"minibatch_size":                    `{"name": "a", "clients": 1, "minibatch_size": 8}`,
	"replay_capacity":                   `{"name": "a", "clients": 1, "replay_capacity": 4096}`,
	"history_every":                     `{"name": "a", "clients": 1, "history_every": -1}`,
	"history_cap":                       `{"name": "a", "clients": 1, "history_cap": 64}`,
	"tick_deadline_ms":                  `{"name": "a", "clients": 1, "tick_deadline_ms": 250}`,
	"max_rollbacks":                     `{"name": "a", "clients": 1, "max_rollbacks": 5}`,
	"rollback_backoff_ms":               `{"name": "a", "clients": 1, "rollback_backoff_ms": 50}`,
	"supervise_every_ms":                `{"name": "a", "clients": 1, "supervise_every_ms": -1}`,
	"max_frames_per_sec":                `{"name": "a", "clients": 1, "max_frames_per_sec": 100}`,
	"divergence":                        `{"name": "a", "clients": 1, "divergence": {"min_steps": 32}}`,
	"divergence.loss_explode_factor":    `{"name": "a", "clients": 1, "divergence": {"loss_explode_factor": 50}}`,
	"divergence.min_steps":              `{"name": "a", "clients": 1, "divergence": {"min_steps": 10}}`,
	"divergence.min_points":             `{"name": "a", "clients": 1, "divergence": {"min_points": 4}}`,
	"divergence.reward_collapse_factor": `{"name": "a", "clients": 1, "divergence": {"reward_collapse_factor": 4}}`,
	"divergence.probe_every_steps":      `{"name": "a", "clients": 1, "divergence": {"probe_every_steps": 128}}`,
}

// invalidSessionSeeds are shapes the pipeline must reject — at decode,
// Validate or engineConfig — without panicking.
var invalidSessionSeeds = []string{
	// Removed knobs: the strict decoder refuses them.
	`{"name": "pipe", "clients": 1, "pipeline": true}`,
	`{"name": "drop", "clients": 1, "drop_incomplete": true}`,
	`{"name": "bad", "clients": 1, "tick_deadline_ms": -1}`,
	`{"name": "bad", "clients": 1, "supervise_every_ms": -2}`,
	`{"name": "bad", "clients": 1, "train_every": -1}`,
	`{"name": "", "clients": 0}`,
	`{"clients": 1e100}`,
	`{"name": "o", "clients": 1, "objective": {"type": "throughput", "read_offset": 9999}}`,
	`{"name": "t", "clients": 1, "tunables": [{"name": "inv", "min": 5, "max": 1}]}`,
	`[]`,
	`null`,
	`{`,
}

// decodeSession decodes one session config strictly, as POST /sessions
// and LoadConfig do.
func decodeSession(data []byte) (SessionConfig, error) {
	var sc SessionConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sc)
	return sc, err
}

// sessionKeyPaths lists the JSON key paths of t's fields, descending
// into struct, pointer-to-struct and slice-of-struct fields ("a.b",
// "a[].b"). The enclosing key is listed too.
func sessionKeyPaths(t reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
		keys = append(keys, key)
		switch ft := f.Type; {
		case ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct:
			keys = append(keys, sessionKeyPaths(ft.Elem(), key+".")...)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			keys = append(keys, sessionKeyPaths(ft.Elem(), key+"[].")...)
		}
	}
	return keys
}

// keyValue returns the value a key path names in v (the first element
// of a slice), or the zero Value when a pointer or slice on the way is
// empty.
func keyValue(v reflect.Value, path string) reflect.Value {
	for _, part := range strings.Split(path, ".") {
		name, elem := strings.CutSuffix(part, "[]")
		found := false
		for i := 0; i < v.NumField(); i++ {
			if strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0] == name {
				v, found = v.Field(i), true
				break
			}
		}
		if !found {
			return reflect.Value{}
		}
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return reflect.Value{}
			}
			v = v.Elem()
		}
		if elem {
			if v.Len() == 0 {
				return reflect.Value{}
			}
			v = v.Index(0)
		}
	}
	return v
}

// TestValidSessionSeeds: validSessionSeeds has one seed per session key
// path, each decodes strictly, passes Validate, and sets its key to a
// non-zero — that is, non-default — value; no invalidSessionSeeds entry
// gets through.
func TestValidSessionSeeds(t *testing.T) {
	keys := sessionKeyPaths(reflect.TypeOf(SessionConfig{}), "")
	if len(keys) != len(validSessionSeeds) {
		t.Errorf("%d session keys, %d valid seeds", len(keys), len(validSessionSeeds))
	}
	for _, key := range keys {
		seed, ok := validSessionSeeds[key]
		if !ok {
			t.Errorf("no valid seed sets %s", key)
			continue
		}
		sc, err := decodeSession([]byte(seed))
		if err != nil {
			t.Errorf("%s: seed does not decode: %v", key, err)
			continue
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: seed fails Validate: %v", key, err)
		}
		if v := keyValue(reflect.ValueOf(sc), key); !v.IsValid() || v.IsZero() {
			t.Errorf("%s: seed leaves the key at its default", key)
		}
	}
	for _, seed := range invalidSessionSeeds {
		sc, err := decodeSession([]byte(seed))
		if err != nil || sc.Validate() != nil {
			continue
		}
		sc = sc.withDefaults()
		if _, err := sc.engineConfig(); err == nil {
			t.Errorf("seed meant to be invalid passes: %s", seed)
		}
	}
}

func FuzzSessionConfig(f *testing.F) {
	keys := make([]string, 0, len(validSessionSeeds))
	for key := range validSessionSeeds {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		f.Add([]byte(validSessionSeeds[key]))
	}
	for _, s := range invalidSessionSeeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := decodeSession(data)
		if err != nil {
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
