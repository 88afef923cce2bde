// Package serve is the multi-tenant serving layer: it hosts many named
// model instances (tenants) behind an HTTP/JSON API and turns the
// engine's replica machinery into a service. Each tenant is a
// core.Model built from per-tenant options; classify requests are
// coalesced into micro-batches and answered from frozen, monotonically
// numbered weight versions (engine.Group.Snapshot) while the tenant's
// master trains online, one sample at a time in submission order, from
// a bounded admission queue whose watermark gate surfaces backpressure
// to clients as 429 + Retry-After instead of hung POSTs.
//
// API (all bodies JSON):
//
//	GET    /v1/tenants                — list tenants
//	PUT    /v1/tenants/{tenant}      — create (body: TenantOptions, may be empty)
//	DELETE /v1/tenants/{tenant}      — graceful delete (drain, join, free)
//	POST   /v1/{tenant}/classify     — {"x":[...]} or {"inputs":[[...],...]}
//	POST   /v1/{tenant}/train        — {"x":[...],"y":3} or {"samples":[{"x":[...],"y":0},...]}
//	GET    /v1/{tenant}/counters     — per-tenant counters as JSON
//	GET    /v1/{tenant}/accuracy     — current version evaluated on the test split
//	GET    /v1/{tenant}/trace        — Chrome/Perfetto trace (tenants created with "trace":true)
//	GET    /debug/counters           — all tenants' counters, text form
//
// The create route lives under the /v1/tenants/ prefix while data
// routes use /v1/{tenant}/..., so "tenants" and "debug" are reserved
// names (validName rejects them — they would be ambiguous paths).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"emstdp/internal/metrics"
)

// Server hosts the tenant registry and implements the HTTP API via
// Handler. Create one with New; all methods are safe for concurrent
// use.
type Server struct {
	mu      sync.Mutex
	tenants map[string]*tenant
	// creating marks names with a model build in flight, so a
	// duplicate create is rejected immediately instead of racing the
	// (slow) dataset generation + pretraining.
	creating map[string]bool
}

// New returns an empty server.
func New() *Server {
	return &Server{tenants: map[string]*tenant{}, creating: map[string]bool{}}
}

// Handler returns the server's HTTP handler (Go 1.22 pattern routing).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants", s.handleList)
	mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleCreate)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDelete)
	mux.HandleFunc("POST /v1/{tenant}/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/{tenant}/train", s.handleTrain)
	mux.HandleFunc("GET /v1/{tenant}/counters", s.handleCounters)
	mux.HandleFunc("GET /v1/{tenant}/accuracy", s.handleAccuracy)
	mux.HandleFunc("GET /v1/{tenant}/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/counters", s.handleDebugCounters)
	return mux
}

// Close deletes every tenant gracefully — the shutdown path of
// cmd/serve and the cleanup path of tests.
func (s *Server) Close() {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.tenants = map[string]*tenant{}
	s.mu.Unlock()
	for _, t := range ts {
		t.close()
	}
}

// validName matches permitted tenant names; "tenants" and "debug" are
// reserved by the route layout.
var validName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

func nameOK(name string) bool {
	return validName.MatchString(name) && name != "tenants" && name != "debug"
}

// lookup resolves a data-route tenant, writing the 404 itself on miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.PathValue("tenant")
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no tenant %q", name))
	}
	return t
}

// TenantInfo is the public description of one tenant — the create
// response and the list elements.
type TenantInfo struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Backend string `json:"backend"`
	// InputDim is the feature-vector length classify and train bodies
	// must carry.
	InputDim int `json:"input_dim"`
	Classes  int `json:"classes"`
	// Version is the currently published weight version (1 = the
	// pretrained weights; version v has v-1 online updates applied).
	Version uint64 `json:"version"`
	// PretrainAccuracy is the offline conv model's training accuracy.
	PretrainAccuracy float64 `json:"pretrain_accuracy"`
}

func (t *tenant) info() TenantInfo {
	return TenantInfo{
		Name:             t.name,
		Dataset:          t.model.DS.Kind.String(),
		Backend:          t.model.Opts.Backend.String(),
		InputDim:         t.model.Conv.OutSize(),
		Classes:          t.model.DS.NumClasses,
		Version:          t.version(),
		PretrainAccuracy: t.model.PretrainAccuracy,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	infos := make([]TenantInfo, 0, len(names))
	for _, n := range names {
		infos = append(infos, s.tenants[n].info())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !nameOK(name) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid tenant name %q", name))
		return
	}
	var topts TenantOptions
	if !decodeJSON(w, r, &topts) {
		return
	}
	s.mu.Lock()
	if _, dup := s.tenants[name]; dup || s.creating[name] {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf("tenant %q already exists", name))
		return
	}
	s.creating[name] = true
	s.mu.Unlock()

	t, err := newTenant(name, topts) // slow: dataset + pretraining
	s.mu.Lock()
	delete(s.creating, name)
	if err == nil {
		s.tenants[name] = t
	}
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, t.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	s.mu.Lock()
	t := s.tenants[name]
	delete(s.tenants, name)
	s.mu.Unlock()
	if t == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no tenant %q", name))
		return
	}
	t.close() // graceful: drains admitted training, joins all goroutines
	writeJSON(w, http.StatusOK, map[string]any{
		"name": name,
		// Post-drain counts: every admitted sample was applied before
		// teardown. Version 1 was the pretrained cut, plus one cut per
		// applied sample.
		"trained":       t.ctr.Get("train.applied"),
		"final_version": 1 + t.ctr.Get("versions.cut"),
	})
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	var req struct {
		X      []float64   `json:"x"`
		Inputs [][]float64 `json:"inputs"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	xs := req.Inputs
	if req.X != nil {
		xs = append([][]float64{req.X}, xs...)
	}
	if len(xs) == 0 {
		writeError(w, http.StatusBadRequest, `classify body needs "x" or "inputs"`)
		return
	}
	dim := t.model.Conv.OutSize()
	for i, x := range xs {
		if len(x) != dim {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("input %d has %d features, tenant expects %d", i, len(x), dim))
			return
		}
	}
	t.ctr.Add("classify.requests", 1)
	resp, err := t.bat.submit(r.Context(), classifyReq{xs: xs, resp: make(chan classifyResp, 1)})
	switch {
	case errors.Is(err, errClosed) || errors.Is(resp.err, errClosed):
		writeError(w, http.StatusGone, "tenant is shutting down")
		return
	case err != nil:
		// The request context is done: the client has gone and nobody
		// reads a reply.
		t.ctr.Add("classify.canceled", 1)
		return
	case resp.err != nil:
		writeError(w, http.StatusInternalServerError, resp.err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"predictions": resp.preds,
		"version":     resp.version,
	})
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	var req struct {
		X       []float64 `json:"x"`
		Y       *int      `json:"y"`
		Samples []struct {
			X []float64 `json:"x"`
			Y int       `json:"y"`
		} `json:"samples"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	var samples []metrics.Sample
	for _, s := range req.Samples {
		samples = append(samples, metrics.Sample{X: s.X, Y: s.Y})
	}
	if req.X != nil {
		if req.Y == nil {
			writeError(w, http.StatusBadRequest, `"x" needs a matching "y" label`)
			return
		}
		samples = append([]metrics.Sample{{X: req.X, Y: *req.Y}}, samples...)
	}
	if len(samples) == 0 {
		writeError(w, http.StatusBadRequest, `train body needs "x"+"y" or "samples"`)
		return
	}
	dim, classes := t.model.Conv.OutSize(), t.model.DS.NumClasses
	for i, smp := range samples {
		if len(smp.X) != dim {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("sample %d has %d features, tenant expects %d", i, len(smp.X), dim))
			return
		}
		if smp.Y < 0 || smp.Y >= classes {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("sample %d label %d out of range [0,%d)", i, smp.Y, classes))
			return
		}
	}
	accepted, err := t.adm.submit(samples)
	switch {
	case errors.Is(err, errClosed):
		writeError(w, http.StatusGone, "tenant is shutting down")
	case errors.Is(err, errGated):
		w.Header().Set("Retry-After", strconv.Itoa(t.retryAfter()))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"accepted": accepted,
			"error":    "training queue at high watermark; retry after the trainer drains",
		})
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{"accepted": accepted})
	}
}

func (s *Server) handleCounters(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":     t.name,
		"counters": t.counters(),
	})
}

func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	ref, err := t.acquire()
	if err != nil {
		writeError(w, http.StatusGone, "tenant is shutting down")
		return
	}
	test := t.model.TestFeatures()
	cm, err := ref.v.Evaluate(test, t.model.DS.NumClasses)
	version := ref.v.Version()
	t.unref(ref)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"accuracy": cm.Accuracy(),
		"version":  version,
		"samples":  len(test),
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.lookup(w, r)
	if t == nil {
		return
	}
	if t.tracer == nil {
		writeError(w, http.StatusNotFound, `tenant was not created with "trace":true`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := t.tracer.WriteChromeTrace(w); err != nil {
		// Headers are gone; best effort.
		return
	}
}

func (s *Server) handleDebugCounters(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	ts := make([]*tenant, 0, len(names))
	for _, n := range names {
		ts = append(ts, s.tenants[n])
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for i, t := range ts {
		snap := t.counters()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s.%s %d\n", names[i], k, snap[k])
		}
	}
}

// maxBodyBytes caps every request body, so no client can make the
// server buffer a JSON array of any size. 8 MiB holds a classify or
// train batch of about a thousand full-precision feature vectors.
const maxBodyBytes = 8 << 20

// decodeJSON decodes a request body of at most maxBodyBytes strictly
// (unknown fields are errors — they are almost always typos in a knob
// name); an empty body decodes as the zero value. On failure it writes
// the error response — 413 for an oversized body, 400 otherwise — and
// returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && err != io.EOF {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Sprintf("bad JSON body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
