package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"capes/internal/agent"
	"capes/internal/capesd"
	"capes/internal/storesim"
	"capes/internal/workload"
)

// TestBuildConfigRejectsLegacyFlags: -config is capesd's one flag. The
// single-session flags and the -http/-auth-token overrides are gone, and
// a missing -config is an error, not a default session.
func TestBuildConfigRejectsLegacyFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capesd.json")
	if err := os.WriteFile(path, []byte(`{"sessions": [{"name": "a", "clients": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		nil,
		{"-listen", "127.0.0.1:0", "-clients", "3"},
		{"-session", "/tmp/ckpt", "-exploit"},
		{"-cluster-role", "leader"},
		{"-config", path, "-http", "127.0.0.1:0"},
		{"-config", path, "-auth-token", "secret"},
		{"-config", path, "extra"},
	} {
		if _, err := buildConfig(args, os.Stderr); err == nil {
			t.Errorf("capesd %q accepted", args)
		}
	}
}

func TestBuildConfigFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capesd.json")
	body := `{"http": "127.0.0.1:9", "auth_token": "s3cret", "sessions": [{"name": "a", "clients": 2}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig([]string{"-config", path}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HTTP != "127.0.0.1:9" || cfg.AuthToken != "s3cret" || len(cfg.Sessions) != 1 || cfg.Sessions[0].Name != "a" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := buildConfig([]string{"-config", "/nonexistent.json"}, os.Stderr); err == nil {
		t.Fatal("missing config file accepted")
	}
}

// driveSim attaches a real simulated cluster to a session address (what
// capes-sim -sessions does) and pushes `ticks` sampling ticks as fast
// as TCP backpressure allows. Errors are reported with Errorf so it can
// run off the test goroutine.
func driveSim(t *testing.T, addr string, clients int, ticks, seed int64) {
	t.Helper()
	p := storesim.DefaultParams()
	p.Clients = clients
	p.Servers = 2
	p.Seed = seed
	cluster, err := storesim.New(p, workload.NewRandRW(1, 9, seed))
	if err != nil {
		t.Errorf("cluster: %v", err)
		return
	}
	agents := make([]*agent.NodeAgent, clients)
	for i := range agents {
		role := "monitor"
		if i == 0 {
			role = "monitor+control"
		}
		a, err := agent.Dial(addr, i, storesim.NumClientPIs, role)
		if err != nil {
			t.Errorf("dial %s: %v", addr, err)
			return
		}
		defer a.Close()
		agents[i] = a
	}
	pis := make([]float64, storesim.NumClientPIs)
	for tick := int64(1); tick <= ticks; tick++ {
		// Apply any pending tuning action, as the control agent would.
		select {
		case act := <-agents[0].Actions():
			if len(act.Values) >= 2 {
				cluster.SetAllWindows(act.Values[0])
				cluster.SetAllRateLimits(act.Values[1])
			}
		default:
		}
		cluster.Tick(tick)
		for i, a := range agents {
			cluster.ClientPIs(i, pis)
			if err := a.SendIndicators(tick, pis); err != nil {
				t.Errorf("send tick %d: %v", tick, err)
				return
			}
		}
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

// TestEndToEndTwoSessions is the full capesd story: a config file with
// two sessions boots one process, two independent simulated clusters
// train concurrently against it, the HTTP control plane reports stats
// and takes a checkpoint, shutdown checkpoints both sessions, and a
// rebooted process restores them.
func TestEndToEndTwoSessions(t *testing.T) {
	tmp := t.TempDir()
	dirA := filepath.Join(tmp, "alpha")
	dirB := filepath.Join(tmp, "beta")
	cfgPath := filepath.Join(tmp, "capesd.json")
	body := fmt.Sprintf(`{
		"http": "127.0.0.1:0",
		"sessions": [
			{"name": "alpha", "clients": 2, "obs_ticks": 2,
			 "train_start_ticks": 16, "minibatch_size": 8,
			 "checkpoint_dir": %q},
			{"name": "beta", "clients": 2, "obs_ticks": 2,
			 "train_start_ticks": 16, "minibatch_size": 8,
			 "checkpoint_dir": %q}
		]
	}`, dirA, dirB)
	if err := os.WriteFile(cfgPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg, err := buildConfig([]string{"-config", cfgPath}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := capesd.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	httpAddr := mgr.HTTPAddr()
	if httpAddr == "" {
		t.Fatal("control plane did not start")
	}
	sessions := mgr.Sessions()
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d", len(sessions))
	}

	// Two independent sim clusters drive the two sessions concurrently.
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			driveSim(t, addr, 2, 500, int64(i+1))
		}(i, s.Addr())
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("sim drive failed")
	}

	// Both engines trained, and the control plane sees it.
	var agg capesd.AggregateStats
	waitFor(t, func() bool {
		resp, err := http.Get("http://" + httpAddr + "/stats")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
			return false
		}
		if len(agg.Sessions) != 2 {
			return false
		}
		for _, st := range agg.Sessions {
			if st.Engine.TrainSteps == 0 {
				return false
			}
		}
		return true
	}, "both sessions trained (via /stats)")

	// /healthz carries the supervision census: after a clean run both
	// sessions are healthy and the self-healing counters are all zero.
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK     bool `json:"ok"`
		Health struct {
			Healthy     int   `json:"healthy"`
			Degraded    int   `json:"degraded"`
			Quarantined int   `json:"quarantined"`
			Failed      int   `json:"failed"`
			Trips       int64 `json:"trips"`
			Rollbacks   int64 `json:"rollbacks"`
		} `json:"health"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !health.OK {
		t.Fatalf("healthz = %d, ok %v", resp.StatusCode, health.OK)
	}
	if health.Health.Healthy != 2 || health.Health.Degraded != 0 ||
		health.Health.Quarantined != 0 || health.Health.Failed != 0 {
		t.Fatalf("healthz census = %+v, want 2 healthy", health.Health)
	}
	if health.Health.Trips != 0 || health.Health.Rollbacks != 0 {
		t.Fatalf("healthz counters nonzero on a clean run: %+v", health.Health)
	}

	// Checkpoint alpha over the control plane.
	req, _ := http.NewRequest("POST", "http://"+httpAddr+"/sessions/alpha/checkpoint", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint = %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dirA, "session.json")); err != nil {
		t.Fatalf("alpha checkpoint missing: %v", err)
	}

	recordsBefore := map[string]int{}
	for _, st := range agg.Sessions {
		recordsBefore[st.Name] = st.Engine.ReplayRecords
	}

	// Graceful shutdown: every session checkpoints concurrently.
	if errs := mgr.Shutdown(); len(errs) != 0 {
		t.Fatalf("shutdown: %v", errs)
	}
	if _, err := os.Stat(filepath.Join(dirB, "session.json")); err != nil {
		t.Fatalf("beta final checkpoint missing: %v", err)
	}

	// Reboot: both sessions restore their replay DBs and models.
	mgr2, err := capesd.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Shutdown()
	for _, s := range mgr2.Sessions() {
		st := s.Stats()
		if !st.Restored {
			t.Fatalf("%s did not restore", st.Name)
		}
		if st.Engine.ReplayRecords == 0 {
			t.Fatalf("%s restored an empty replay DB", st.Name)
		}
		// The final shutdown checkpoint may hold a few more records than
		// the /stats snapshot taken mid-drive, never fewer.
		if st.Engine.ReplayRecords < recordsBefore[st.Name] {
			t.Fatalf("%s: restored %d records, had %d", st.Name,
				st.Engine.ReplayRecords, recordsBefore[st.Name])
		}
	}
}
