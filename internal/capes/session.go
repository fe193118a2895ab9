package capes

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/rl"
)

// Session checkpointing (§A.4): "CAPES automatically checkpoints and
// stores the trained model when being stopped, and loads the saved model
// when being started next time". A session directory holds the model,
// the replay database snapshot, the telemetry history and a small JSON
// manifest.
//
// Checkpoints are crash-atomic at the directory level: SaveSession
// stages the complete checkpoint in "<dir>.tmp" (manifest written last)
// and swaps it in with renames, parking the previous checkpoint at
// "<dir>.old" until the swap lands. A reader therefore always finds
// either the complete old checkpoint or the complete new one — never a
// new model paired with a stale manifest, and never a torn manifest.
// recoverCheckpointDir completes an interrupted swap on the next save
// or restore:
//
//	crash while staging   → dir intact, torn tmp discarded
//	crash mid-swap        → dir absent; tmp is complete (its manifest
//	                        landed before the swap began) and is
//	                        promoted, else old is rolled back
//	crash before cleanup  → dir complete, leftover old discarded
//
// That is the whole crash model: the swap is atomic against the process
// dying at any point, but nothing is fsynced, so a checkpoint is not
// durable across a power loss or a kernel crash — the files and renames
// of the last save may not have reached the disk.
//
// A restore is two steps: LoadCheckpoint reads and validates every file
// without touching an engine, and Engine.Restore checks the result
// against the engine and commits it. RestoreSession runs both under the
// engine lock; a daemon booting a session can run the first while it
// builds the engine.

const (
	modelFile    = "model.ckpt"
	replayFile   = "replay.db"
	manifestFile = "session.json"
	historyFile  = "history.json"

	tmpSuffix = ".tmp"
	oldSuffix = ".old"
)

// ErrNoSession reports that a session directory holds no checkpoint at
// all (first boot, or a fresh checkpoint dir). Callers should treat it
// as "start from scratch"; any other RestoreSession error means a
// checkpoint exists but could not be loaded — corrupt or mismatched —
// and must not be silently ignored.
var ErrNoSession = errors.New("capes: no saved session")

// manifestVersion is the manifest schema; RestoreSession refuses any
// other.
const manifestVersion = 2

// sessionManifest is the checkpoint manifest. Fields consumed on
// restore: FrameWidth/NumActions gate compatibility, CurrentValues
// restores the engine's view of the applied parameters, TrainSteps
// restores the agent's global step counter (EWMA seeding and the
// divergence-scan schedule key off it), and the
// telemetry fields keep Stats/history monotonic across a resume.
type sessionManifest struct {
	Version       int       `json:"version"`
	FrameWidth    int       `json:"frame_width"`
	NumActions    int       `json:"num_actions"`
	CurrentValues []float64 `json:"current_values"`
	TrainSteps    int64     `json:"train_steps"`

	LastLoss      float64 `json:"last_loss,omitempty"`
	LossEWMA      float64 `json:"loss_ewma,omitempty"`
	TDErrEWMA     float64 `json:"td_err_ewma,omitempty"`
	RandomActions int64   `json:"random_actions,omitempty"`
	CalcActions   int64   `json:"calc_actions,omitempty"`
}

// recoverCheckpointDir completes a SaveSession swap that a crash
// interrupted, restoring the invariant that dir exists iff a complete
// checkpoint exists, with no tmp/old leftovers. Safe to call any time;
// both SaveSession and LoadCheckpoint run it first.
func recoverCheckpointDir(dir string) error {
	tmp, old := dir+tmpSuffix, dir+oldSuffix
	if _, err := os.Stat(dir); err == nil {
		// A present dir is authoritative: any tmp is a torn staging
		// attempt, any old is an already-superseded checkpoint.
		if err := os.RemoveAll(tmp); err != nil {
			return err
		}
		return os.RemoveAll(old)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// dir is absent: a swap was cut mid-flight. The staged checkpoint
	// is complete exactly when its manifest landed (the manifest is
	// written last, before the swap begins) — promote it; otherwise
	// roll the parked previous checkpoint back.
	if _, err := os.Stat(filepath.Join(tmp, manifestFile)); err == nil {
		if err := os.Rename(tmp, dir); err != nil {
			return err
		}
		return os.RemoveAll(old)
	}
	if _, err := os.Stat(old); err == nil {
		if err := os.RemoveAll(tmp); err != nil {
			return err
		}
		return os.Rename(old, dir)
	}
	// No checkpoint at all; discard any torn staging dir.
	return os.RemoveAll(tmp)
}

// SaveSession writes the engine's model, replay DB, telemetry and state
// to dir as one crash-atomic checkpoint (see the package comment above
// for the staging/swap protocol). It holds the engine lock for the
// duration, so a checkpoint taken while agents are ticking is
// internally consistent.
func (e *Engine) SaveSession(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := recoverCheckpointDir(dir); err != nil {
		return err
	}
	tmp, old := dir+tmpSuffix, dir+oldSuffix
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := e.agent.Online.SaveFile(filepath.Join(tmp, modelFile)); err != nil {
		return fmt.Errorf("capes: save model: %w", err)
	}
	if err := e.db.SaveFile(filepath.Join(tmp, replayFile)); err != nil {
		return fmt.Errorf("capes: save replay DB: %w", err)
	}
	// Telemetry travels with the checkpoint so a restored session keeps
	// its reward/loss curves instead of starting the dashboard blank.
	hbuf, err := json.Marshal(e.hist.Snapshot())
	if err != nil {
		return fmt.Errorf("capes: save history: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, historyFile), hbuf, 0o644); err != nil {
		return fmt.Errorf("capes: save history: %w", err)
	}
	random, calc := e.agent.ActionCounts()
	m := sessionManifest{
		Version:       manifestVersion,
		FrameWidth:    e.cfg.FrameWidth,
		NumActions:    e.cfg.Space.NumActions(),
		CurrentValues: append([]float64(nil), e.current...),
		TrainSteps:    e.agent.Steps(),
		LastLoss:      e.agent.LastLoss(),
		LossEWMA:      e.agent.SmoothedLoss(),
		TDErrEWMA:     e.agent.TDErrorEMA(),
		RandomActions: random,
		CalcActions:   calc,
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	// The manifest is the staging completion marker: it is written last,
	// so a tmp dir containing a manifest is by construction a complete
	// checkpoint (recoverCheckpointDir relies on this).
	if err := os.WriteFile(filepath.Join(tmp, manifestFile), buf, 0o644); err != nil {
		return err
	}
	// Swap: park the previous checkpoint, promote the staged one, then
	// drop the parked copy. Every crash point here is recoverable.
	if _, err := os.Stat(dir); err == nil {
		if err := os.Rename(dir, old); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		// Best effort: put the previous checkpoint back so the session
		// stays restorable even though this save failed.
		if _, statErr := os.Stat(old); statErr == nil {
			_ = os.Rename(old, dir)
		}
		return err
	}
	return os.RemoveAll(old)
}

// Checkpoint is a session checkpoint read from disk and validated on
// its own terms — manifest, model, replay snapshot and telemetry — but
// not yet checked against, or committed to, any engine. LoadCheckpoint
// reads one and Engine.Restore commits it.
type Checkpoint struct {
	manifest sessionManifest
	model    *nn.MLP[EnginePrecision]
	db       *replay.DB     // nil: a model-only checkpoint
	history  []HistoryPoint // nil: a checkpoint without telemetry
}

// LoadCheckpoint reads the checkpoint saved in dir by SaveSession,
// completing an interrupted swap first. It touches no engine, so it can
// run while the engine that will take the checkpoint is being built.
//
// When dir holds no checkpoint at all the returned error wraps
// ErrNoSession — a normal first boot. Every other error means a
// checkpoint exists but could not be read: it is corrupt.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	if err := recoverCheckpointDir(dir); err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// With atomic saves a checkpoint either exists completely or
			// not at all — other checkpoint files alongside a missing
			// manifest mean a damaged (e.g. hand-edited) checkpoint, not
			// a fresh directory.
			for _, f := range []string{modelFile, replayFile, historyFile} {
				if _, serr := os.Stat(filepath.Join(dir, f)); serr == nil {
					return nil, fmt.Errorf("capes: checkpoint in %s is missing its manifest", dir)
				}
			}
			return nil, fmt.Errorf("%w in %s", ErrNoSession, dir)
		}
		return nil, err
	}
	cp := new(Checkpoint)
	if err := json.Unmarshal(buf, &cp.manifest); err != nil {
		return nil, fmt.Errorf("capes: bad session manifest: %w", err)
	}
	if v := cp.manifest.Version; v != manifestVersion {
		return nil, fmt.Errorf("capes: session manifest version %d, this build reads %d", v, manifestVersion)
	}
	// The model restores bit-exactly at the engine precision; a
	// checkpoint written at any other precision is an error.
	if cp.model, err = nn.LoadFile[EnginePrecision](filepath.Join(dir, modelFile)); err != nil {
		return nil, fmt.Errorf("capes: load model: %w", err)
	}
	if cp.db, err = loadReplaySnapshot(filepath.Join(dir, replayFile)); err != nil {
		return nil, err
	}
	if cp.history, err = loadHistorySnapshot(filepath.Join(dir, historyFile)); err != nil {
		return nil, err
	}
	return cp, nil
}

// RestoreSession loads a session saved by SaveSession into a fresh
// engine built with the same Config: LoadCheckpoint then Restore, under
// the engine lock throughout.
//
// When dir holds no checkpoint at all the returned error wraps
// ErrNoSession — a normal first boot. Every other error means a
// checkpoint exists but is corrupt or shaped for a different engine.
func (e *Engine) RestoreSession(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp, err := LoadCheckpoint(dir)
	if err != nil {
		return err
	}
	return e.restoreLocked(cp)
}

// Restore commits a checkpoint read by LoadCheckpoint to the engine. The
// model weights, train-step counter, telemetry, current parameter values
// and the replay DB are restored.
//
// The restore is all-or-nothing: the checkpoint is checked against the
// engine's shape first, and the engine's state is replaced only after
// everything checked out — a mismatched checkpoint leaves the engine
// exactly as it was. On success the engine owns the checkpoint's model
// and replay DB, so a Checkpoint restores one engine once.
func (e *Engine) Restore(cp *Checkpoint) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restoreLocked(cp)
}

func (e *Engine) restoreLocked(cp *Checkpoint) error {
	m, model := &cp.manifest, cp.model
	if model == nil {
		return errors.New("capes: checkpoint already restored into an engine")
	}
	if m.FrameWidth != e.cfg.FrameWidth {
		return fmt.Errorf("capes: session frame width %d, engine %d", m.FrameWidth, e.cfg.FrameWidth)
	}
	if m.NumActions != e.cfg.Space.NumActions() {
		return fmt.Errorf("capes: session has %d actions, engine %d", m.NumActions, e.cfg.Space.NumActions())
	}
	if m.CurrentValues != nil && len(m.CurrentValues) != len(e.cfg.Space.Tunables) {
		return fmt.Errorf("capes: session has %d current values for %d tunables",
			len(m.CurrentValues), len(e.cfg.Space.Tunables))
	}
	if model.InputSize() != e.db.ObservationWidth() || model.OutputSize() != m.NumActions {
		return fmt.Errorf("capes: model shape %d→%d incompatible with engine %d→%d",
			model.InputSize(), model.OutputSize(), e.db.ObservationWidth(), m.NumActions)
	}
	agentCfg := e.agent.Config()
	agent, err := rl.NewAgentWithNetwork(agentCfg, e.agent.Epsilon, model, e.rng)
	if err != nil {
		return err
	}
	// Step-exact resume: the restored counter keeps the first-step EWMA
	// seeding and the divergence-scan schedule on the same global steps
	// an uninterrupted run would hit.
	if err := agent.RestoreSteps(m.TrainSteps); err != nil {
		return fmt.Errorf("capes: bad session manifest: %w", err)
	}
	agent.RestoreTelemetry(m.LastLoss, m.LossEWMA, m.TDErrEWMA, m.RandomActions, m.CalcActions)
	db := cp.db
	if db != nil {
		if db, err = rehomeReplay(db, e.db.Config()); err != nil {
			return err
		}
	}

	// Commit point: everything validated, replace engine state.
	cp.model, cp.db = nil, nil
	e.agent = agent
	if db != nil {
		e.db = db
	}
	if m.CurrentValues != nil {
		e.current = append([]float64(nil), m.CurrentValues...)
	}
	if cp.history != nil {
		e.hist.restore(cp.history)
	}
	// A rollback restore re-arms the divergence guard: the restored
	// parameters are the last-known-good generation, so the trip that
	// motivated the restore is resolved. The probe cursor rewinds with
	// the step counter, and the collapse tracker re-seeds (its EWMA was
	// shaped by the diverged policy's actions).
	e.clearDivergenceLocked()
	e.lastProbeStep = m.TrainSteps
	e.rewardSeeded = false
	e.rewardPeak = 0
	// A cluster engine realigns its peers: the leader republishes the
	// restored parameters and evicts followers (they rejoin against
	// them), a follower drops its connection and resyncs.
	e.resyncClusterLocked()
	return nil
}

// loadHistorySnapshot reads the telemetry ring from a checkpoint. A
// missing file returns (nil, nil) — pre-telemetry checkpoints; a
// corrupt one is an error.
func loadHistorySnapshot(path string) ([]HistoryPoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var pts []HistoryPoint
	if err := json.Unmarshal(buf, &pts); err != nil {
		return nil, fmt.Errorf("capes: bad history checkpoint: %w", err)
	}
	if pts == nil {
		pts = []HistoryPoint{}
	}
	return pts, nil
}

// loadReplaySnapshot reads a checkpoint's replay snapshot. A missing
// file returns (nil, nil) — a model-only checkpoint.
func loadReplaySnapshot(path string) (*replay.DB, error) {
	db, err := replay.LoadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("capes: load replay DB: %w", err)
	}
	return db, nil
}

// rehomeReplay checks a loaded replay snapshot against the engine's ring
// configuration, re-homing the records when the retention settings
// changed between runs.
func rehomeReplay(db *replay.DB, want replay.Config) (*replay.DB, error) {
	got := db.Config()
	if got.FrameWidth != want.FrameWidth || got.StackTicks != want.StackTicks {
		return nil, fmt.Errorf("capes: replay snapshot shape %d×%d, engine %d×%d",
			got.FrameWidth, got.StackTicks, want.FrameWidth, want.StackTicks)
	}
	if got == want {
		return db, nil
	}
	// The snapshot was taken under different retention settings (an
	// operator changed ReplayCapacity between runs). The engine's
	// current configuration is authoritative: re-home the records into a
	// ring sized for it (float32 values round-trip exactly).
	fresh, err := replay.New(want)
	if err != nil {
		return nil, err
	}
	var rehomeErr error
	db.Range(func(t int64, f replay.Frame, a int, hasAction bool) bool {
		if f != nil {
			if err := fresh.PutFrame(t, f); err != nil {
				rehomeErr = fmt.Errorf("capes: re-home replay snapshot: %w", err)
				return false
			}
		}
		if hasAction {
			fresh.PutAction(t, a)
		}
		return true
	})
	if rehomeErr != nil {
		return nil, rehomeErr
	}
	return fresh, nil
}
