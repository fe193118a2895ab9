package capesd

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	"capes/internal/capes"
	"capes/internal/tensor"
)

// The HTTP/JSON control plane. Endpoints:
//
//	GET    /healthz                      liveness + session count
//	GET    /stats                        aggregate stats across sessions
//	POST   /checkpoint                   checkpoint every enabled session
//	GET    /sessions                     list session stats
//	POST   /sessions                     create a session (SessionConfig body)
//	GET    /sessions/{name}              one session's stats
//	GET    /sessions/{name}/stats        same (explicit form)
//	GET    /sessions/{name}/history      training telemetry (?since= cursor)
//	GET    /sessions/{name}/chart        reward/loss/epsilon curves, text/plain
//	POST   /sessions/{name}/pause        stop ticking, keep agents
//	POST   /sessions/{name}/resume       resume ticking
//	POST   /sessions/{name}/checkpoint   save to the session's checkpoint dir
//	DELETE /sessions/{name}              drain, final-checkpoint and remove
//
// Every response is JSON; errors are {"error": "..."} with 4xx/5xx.
//
// Hardening: when Config.AuthToken is set, every mutating endpoint
// (POST/DELETE) requires "Authorization: Bearer <token>" and answers
// 401 otherwise; reads stay open for probes and dashboards. JSON
// request bodies are capped at maxBodyBytes (413 beyond it).

// maxBodyBytes caps control-plane request bodies: a session config is
// a few KB, so 1 MiB is generous and still starves memory-exhaustion
// attempts.
const maxBodyBytes = 1 << 20

// Handler returns the control-plane handler (useful for tests and for
// embedding capesd into a larger server).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The transport summary makes agent-connectivity trouble visible
		// from the liveness probe: climbing evictions/dropped counters on
		// a "healthy" daemon mean the cluster is flapping.
		var tr struct {
			Reconnects     int64 `json:"reconnects"`
			Evictions      int64 `json:"evictions"`
			DroppedTicks   int64 `json:"dropped_ticks"`
			DroppedActions int64 `json:"dropped_actions"`
		}
		// The supervision census makes self-healing activity visible from
		// the liveness probe: a nonzero quarantined/failed count (or
		// climbing trips/rollbacks) flags sessions the supervisor is
		// nursing, before anyone digs into /stats.
		var hl struct {
			Healthy     int   `json:"healthy"`
			Degraded    int   `json:"degraded"`
			Quarantined int   `json:"quarantined"`
			Failed      int   `json:"failed"`
			Trips       int64 `json:"trips"`
			Rollbacks   int64 `json:"rollbacks"`
			ShedFrames  int64 `json:"shed_frames"`
		}
		sessions := m.Sessions()
		for _, s := range sessions {
			st := s.Stats()
			tr.Reconnects += st.Transport.Reconnects
			tr.Evictions += st.Transport.Evictions
			tr.DroppedTicks += st.Transport.DroppedTicks
			tr.DroppedActions += st.Transport.DroppedActions
			switch st.Supervisor.Health {
			case HealthHealthy:
				hl.Healthy++
			case HealthDegraded:
				hl.Degraded++
			case HealthQuarantined:
				hl.Quarantined++
			case HealthFailed:
				hl.Failed++
			}
			hl.Trips += st.Supervisor.Trips
			hl.Rollbacks += st.Supervisor.Rollbacks
			hl.ShedFrames += st.Supervisor.ShedFrames
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":          true,
			"sessions":    len(sessions),
			"kernel_tier": tensor.KernelTier(),
			"transport":   tr,
			"health":      hl,
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.AggregateStats())
	})
	mux.HandleFunc("POST /checkpoint", m.requireAuth(func(w http.ResponseWriter, r *http.Request) {
		saved, errs := m.CheckpointAll()
		body := map[string]any{"checkpointed": saved}
		status := http.StatusOK
		if len(errs) > 0 {
			failed := make(map[string]string, len(errs))
			for name, err := range errs {
				failed[name] = err.Error()
			}
			body["errors"] = failed
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, body)
	}))
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		stats := []SessionStats{}
		for _, s := range m.Sessions() {
			stats = append(stats, s.Stats())
		}
		writeJSON(w, http.StatusOK, stats)
	})
	mux.HandleFunc("POST /sessions", m.requireAuth(func(w http.ResponseWriter, r *http.Request) {
		var cfg SessionConfig
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("session config exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad session config: %w", err))
			return
		}
		s, err := m.Create(cfg)
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrSessionExists):
				status = http.StatusConflict
			case errors.Is(err, ErrInvalidSession):
				status = http.StatusBadRequest
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, s.Stats())
	}))
	mux.HandleFunc("GET /sessions/{name}", func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			writeJSON(w, http.StatusOK, s.Stats())
		})
	})
	mux.HandleFunc("GET /sessions/{name}/stats", func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			writeJSON(w, http.StatusOK, s.Stats())
		})
	})
	mux.HandleFunc("GET /sessions/{name}/history", func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			since := int64(-1)
			if q := r.URL.Query().Get("since"); q != "" {
				v, err := strconv.ParseInt(q, 10, 64)
				if err != nil {
					writeError(w, http.StatusBadRequest, fmt.Errorf("bad since cursor %q: %w", q, err))
					return
				}
				since = v
			}
			pts := s.Engine().HistorySince(since)
			if pts == nil {
				pts = []capes.HistoryPoint{} // "points": [], never null
			}
			resp := HistoryResponse{Session: s.Name(), Points: pts, Next: since}
			if len(pts) > 0 {
				resp.Next = pts[len(pts)-1].Tick
			}
			writeJSON(w, http.StatusOK, resp)
		})
	})
	mux.HandleFunc("GET /sessions/{name}/chart", func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			RenderSessionChart(w, s.Name(), string(s.State()), s.Engine().History())
		})
	})
	mux.HandleFunc("POST /sessions/{name}/pause", m.requireAuth(func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			if err := s.Pause(); err != nil {
				writeError(w, http.StatusConflict, err)
				return
			}
			writeJSON(w, http.StatusOK, s.Stats())
		})
	}))
	mux.HandleFunc("POST /sessions/{name}/resume", m.requireAuth(func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			if err := s.Resume(); err != nil {
				writeError(w, http.StatusConflict, err)
				return
			}
			writeJSON(w, http.StatusOK, s.Stats())
		})
	}))
	mux.HandleFunc("POST /sessions/{name}/checkpoint", m.requireAuth(func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(s *Session) {
			if err := s.Checkpoint(); err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, s.Stats())
		})
	}))
	mux.HandleFunc("DELETE /sessions/{name}", m.requireAuth(func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if _, ok := m.Get(name); !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", name))
			return
		}
		if err := m.Delete(name); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
	}))
	return mux
}

// StartHTTP binds the control plane and serves it in the background,
// returning the bound address (resolves ":0" for tests).
func (m *Manager) StartHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("capesd: control plane listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: m.Handler()}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("capesd: manager is shut down")
	}
	m.httpLn, m.httpSrv = ln, srv
	m.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// HTTPAddr returns the control plane's bound address ("" when not
// started).
func (m *Manager) HTTPAddr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.httpLn == nil {
		return ""
	}
	return m.httpLn.Addr().String()
}

// requireAuth wraps a mutating handler behind the manager's bearer
// token. No token configured → open (single-operator dev setups); a
// constant-time compare keeps the token unguessable byte-by-byte.
func (m *Manager) requireAuth(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		token := m.authToken
		m.mu.Unlock()
		if token != "" {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="capesd"`)
				writeError(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
				return
			}
		}
		fn(w, r)
	}
}

func withSession(m *Manager, w http.ResponseWriter, r *http.Request, fn func(*Session)) {
	name := r.PathValue("name")
	s, ok := m.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", name))
		return
	}
	fn(s)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
