package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/metrics"
)

// testOpts is the small-but-real tenant fixture every conformance test
// uses: a full conv+dense model, sized so Build takes well under a
// second. Seed varies per tenant so isolation tests see distinct
// weights.
func testOpts(seed uint64) TenantOptions {
	return TenantOptions{
		Hidden:         []int{10},
		T:              16,
		TrainSamples:   40,
		TestSamples:    16,
		PretrainEpochs: 1,
		Seed:           seed,
	}
}

// refModel builds the synchronous reference: the same core.Options the
// serve layer derives from opts, trained by direct TrainSample calls.
// Conformance = the served answers are bit-identical to this model's.
func refModel(t *testing.T, opts TenantOptions) *core.Model {
	t.Helper()
	copts, err := opts.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func createTenant(t *testing.T, base, name string, opts TenantOptions) TenantInfo {
	t.Helper()
	resp, body := doJSON(t, http.MethodPut, base+"/v1/tenants/"+name, opts)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", name, resp.StatusCode, body)
	}
	var info TenantInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

type classifyResult struct {
	Predictions []int  `json:"predictions"`
	Version     uint64 `json:"version"`
}

func classify(t *testing.T, base, tenant string, xs [][]float64) classifyResult {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/"+tenant+"/classify",
		map[string]any{"inputs": xs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d: %s", resp.StatusCode, body)
	}
	var out classifyResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// trainOne posts a single sample and fails on anything but 202.
func trainOne(t *testing.T, base, tenant string, s metrics.Sample) {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, base+"/v1/"+tenant+"/train",
		map[string]any{"x": s.X, "y": s.Y})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("train: status %d: %s", resp.StatusCode, body)
	}
}

// counterValue polls the counters endpoint for one key.
func counterValue(t *testing.T, base, tenant, key string) int64 {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, base+"/v1/"+tenant+"/counters", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("counters: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Counters[key]
}

// waitCounter blocks until the named counter reaches want.
func waitCounter(t *testing.T, base, tenant, key string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := counterValue(t, base, tenant, key); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d (at %d)",
				key, want, counterValue(t, base, tenant, key))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClassifyConformance pins the micro-batcher's core promise:
// coalesced, concurrently submitted classify requests answer
// bit-identically to the synchronous reference model, every response
// from pretrained version 1.
func TestClassifyConformance(t *testing.T) {
	opts := testOpts(11)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", opts)
	ref := refModel(t, opts)
	probes := ref.TestFeatures()

	want := make([]int, len(probes))
	for i, p := range probes {
		want[i] = ref.Predict(p.X)
	}

	// Concurrent single- and multi-vector requests force coalescing.
	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			var xs [][]float64
			lo := c * 2 % len(probes)
			for _, p := range probes[lo : lo+2] {
				xs = append(xs, p.X)
			}
			got := classify(t, ts.URL, "a", xs)
			if got.Version != 1 {
				errs <- fmt.Errorf("client %d: version %d, want 1", c, got.Version)
				return
			}
			for i := range xs {
				if got.Predictions[i] != want[lo+i] {
					errs <- fmt.Errorf("client %d: probe %d predicted %d, want %d",
						c, lo+i, got.Predictions[i], want[lo+i])
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(t, ts.URL, "a", "classify.requests"); got != clients {
		t.Fatalf("classify.requests %d, want %d", got, clients)
	}
}

// TestTrainConformance pins the online-training path: K samples pushed
// through the admission stream leave the served model bit-identical to
// the reference trained on the same K samples in submission order, and
// the published version is exactly K+1.
func TestTrainConformance(t *testing.T) {
	opts := testOpts(12)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", opts)
	ref := refModel(t, opts)
	seq := ref.TrainFeatures()[:10]
	probes := ref.TestFeatures()

	for _, s := range seq {
		trainOne(t, ts.URL, "a", s)
	}
	waitCounter(t, ts.URL, "a", "train.applied", int64(len(seq)))

	for _, s := range seq {
		ref.TrainSample(s.X, s.Y)
	}
	want := make([]int, len(probes))
	xs := make([][]float64, len(probes))
	for i, p := range probes {
		want[i] = ref.Predict(p.X)
		xs[i] = p.X
	}
	got := classify(t, ts.URL, "a", xs)
	if got.Version != uint64(len(seq))+1 {
		t.Fatalf("version %d after %d updates, want %d", got.Version, len(seq), len(seq)+1)
	}
	for i := range want {
		if got.Predictions[i] != want[i] {
			t.Fatalf("probe %d predicted %d, want %d (trained weights diverged)",
				i, got.Predictions[i], want[i])
		}
	}
}

// TestTrainWhileClassify is the torn-weights detector: classify
// traffic hammers the tenant while training advances the master, and
// every response must be the exact prediction set of the weight
// version it claims — precomputed by replaying the same training on
// the reference. A response mixing version N's weights with version
// N+1's (a torn read of the master mid-update) cannot match any
// pinned set.
func TestTrainWhileClassify(t *testing.T) {
	opts := testOpts(13)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", opts)
	ref := refModel(t, opts)
	seq := ref.TrainFeatures()[:8]
	probes := ref.TestFeatures()[:6]
	xs := make([][]float64, len(probes))
	for i, p := range probes {
		xs[i] = p.X
	}

	// byVersion[v] = the reference predictions with v-1 updates applied.
	byVersion := map[uint64][]int{}
	snap := func(v uint64) {
		preds := make([]int, len(probes))
		for i, p := range probes {
			preds[i] = ref.Predict(p.X)
		}
		byVersion[v] = preds
	}
	snap(1)
	for k, s := range seq {
		ref.TrainSample(s.X, s.Y)
		snap(uint64(k) + 2)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				got := classify(t, ts.URL, "a", xs)
				want, ok := byVersion[got.Version]
				if !ok {
					errs <- fmt.Errorf("unknown version %d", got.Version)
					return
				}
				for i := range want {
					if got.Predictions[i] != want[i] {
						errs <- fmt.Errorf("version %d probe %d predicted %d, want %d (torn weights)",
							got.Version, i, got.Predictions[i], want[i])
						return
					}
				}
			}
		}()
	}
	for _, s := range seq {
		trainOne(t, ts.URL, "a", s)
	}
	waitCounter(t, ts.URL, "a", "train.applied", int64(len(seq)))
	close(stop)
	for c := 0; c < 4; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Final state: the newest version serves, pinned like the rest.
	got := classify(t, ts.URL, "a", xs)
	if got.Version != uint64(len(seq))+1 {
		t.Fatalf("final version %d, want %d", got.Version, len(seq)+1)
	}
}

// TestTenantIsolation pins that tenants share nothing mutable:
// training one tenant leaves another's predictions untouched, and two
// tenants with different seeds really are different models.
func TestTenantIsolation(t *testing.T) {
	optsA, optsB := testOpts(21), testOpts(22)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", optsA)
	createTenant(t, ts.URL, "b", optsB)
	refB := refModel(t, optsB)
	probes := refB.TestFeatures()
	xs := make([][]float64, len(probes))
	wantB := make([]int, len(probes))
	for i, p := range probes {
		xs[i] = p.X
		wantB[i] = refB.Predict(p.X)
	}

	before := classify(t, ts.URL, "b", xs)
	refA := refModel(t, optsA)
	for _, s := range refA.TrainFeatures()[:6] {
		trainOne(t, ts.URL, "a", s)
	}
	waitCounter(t, ts.URL, "a", "train.applied", 6)

	after := classify(t, ts.URL, "b", xs)
	if after.Version != 1 {
		t.Fatalf("tenant b version %d after training a, want 1", after.Version)
	}
	for i := range wantB {
		if before.Predictions[i] != wantB[i] || after.Predictions[i] != wantB[i] {
			t.Fatalf("tenant b probe %d: before %d after %d, want %d",
				i, before.Predictions[i], after.Predictions[i], wantB[i])
		}
	}
	if got := counterValue(t, ts.URL, "b", "train.applied"); got != 0 {
		t.Fatalf("tenant b applied %d training samples, want 0", got)
	}
}

// TestAdmissionControl pins the 429 path: with a tiny admission band,
// an oversized train batch is partially accepted and rejected with 429
// plus a positive Retry-After, and the accepted prefix still trains to
// completion.
func TestAdmissionControl(t *testing.T) {
	opts := testOpts(31)
	opts.AdmitLow = 1
	opts.AdmitHigh = 2
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", opts)
	ref := refModel(t, opts)

	feats := ref.TrainFeatures()
	n := 200
	samples := make([]map[string]any, n)
	for i := range samples {
		s := feats[i%len(feats)]
		samples[i] = map[string]any{"x": s.X, "y": s.Y}
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/a/train",
		map[string]any{"samples": samples})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted < 1 || out.Accepted >= n {
		t.Fatalf("accepted %d of %d, want a partial prefix", out.Accepted, n)
	}
	// The admitted prefix drains and trains; nothing is lost or
	// double-counted on the way through the gate.
	waitCounter(t, ts.URL, "a", "train.applied", int64(out.Accepted))
	if got := counterValue(t, ts.URL, "a", "train.rejected"); got != int64(n-out.Accepted) {
		t.Fatalf("train.rejected %d, want %d", got, n-out.Accepted)
	}
}

// TestDeleteGraceful pins the teardown contract this PR's lifecycle
// fixes exist for: delete drains every admitted sample, reports the
// final trained count and version, frees the name for re-creation, and
// later requests see 404/410 rather than a hang or a panic.
func TestDeleteGraceful(t *testing.T) {
	opts := testOpts(41)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", opts)
	ref := refModel(t, opts)
	seq := ref.TrainFeatures()[:5]
	for _, s := range seq {
		trainOne(t, ts.URL, "a", s)
	}

	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/tenants/a", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Trained      int64 `json:"trained"`
		FinalVersion int64 `json:"final_version"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trained != int64(len(seq)) {
		t.Fatalf("delete drained %d trained samples, want %d", out.Trained, len(seq))
	}
	if out.FinalVersion != int64(len(seq))+1 {
		t.Fatalf("final version %d, want %d", out.FinalVersion, len(seq)+1)
	}

	resp, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/a/classify",
		map[string]any{"x": ref.TestFeatures()[0].X})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("classify after delete: status %d, want 404", resp.StatusCode)
	}
	// The name is free again.
	createTenant(t, ts.URL, "a", opts)
}

// TestCreateValidation covers the request-validation surface: bad
// names, reserved names, duplicates, unknown datasets/backends and
// malformed bodies all fail fast with 4xx, never a half-built tenant.
func TestCreateValidation(t *testing.T) {
	opts := testOpts(51)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", opts)

	for _, tc := range []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"duplicate", "/v1/tenants/a", opts, http.StatusConflict},
		{"reserved name", "/v1/tenants/tenants", opts, http.StatusBadRequest},
		{"reserved debug", "/v1/tenants/debug", opts, http.StatusBadRequest},
		{"bad chars", "/v1/tenants/no%2Fslash", opts, http.StatusBadRequest},
		{"unknown dataset", "/v1/tenants/b", map[string]any{"dataset": "imagenet"}, http.StatusBadRequest},
		{"unknown backend", "/v1/tenants/b", map[string]any{"backend": "tpu"}, http.StatusBadRequest},
		{"unknown knob", "/v1/tenants/b", map[string]any{"hiden": []int{3}}, http.StatusBadRequest},
		{"retired batch window", "/v1/tenants/b", map[string]any{"batch_window_us": 2000}, http.StatusBadRequest},
		// T above the chip's Theta (256) would zero every input bias.
		{"chip T over Theta", "/v1/tenants/b", map[string]any{
			"backend": "chip", "t": 512, "hidden": []int{10}, "train_samples": 40,
			"test_samples": 16, "pretrain_epochs": 1, "seed": 51}, http.StatusBadRequest},
	} {
		resp, body := doJSON(t, http.MethodPut, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
	// None of the failures left a phantom tenant behind.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/tenants", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var out struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Tenants) != 1 || out.Tenants[0].Name != "a" {
		t.Fatalf("tenant list %+v, want just %q", out.Tenants, "a")
	}
}

// TestCreateWorkersCappedAtCPUs checks that a tenant body cannot size
// the replica pool (up to one model replica and, traced, one event ring
// per worker) beyond the host's CPUs, while zero and negative keep their
// meanings (one worker, every CPU). It checks the translation only: a
// tenant built from an uncapped request would allocate what the cap
// prevents.
func TestCreateWorkersCappedAtCPUs(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, c := range []struct{ in, want int }{
		{0, 0},
		{-1, -1},
		{1, 1},
		{cpus, cpus},
		{cpus + 1, cpus},
		{65536, cpus},
		{math.MaxInt, cpus},
	} {
		copts, err := TenantOptions{Workers: c.in, Trace: true}.coreOptions()
		if err != nil {
			t.Fatal(err)
		}
		if copts.Workers != c.want {
			t.Errorf("workers %d: core Workers %d, want %d", c.in, copts.Workers, c.want)
		}
	}
}

// TestRequestValidation covers the data-route guards: wrong feature
// dimension, out-of-range labels and empty bodies are 400s and leave
// no counter or stream state behind.
func TestRequestValidation(t *testing.T) {
	opts := testOpts(61)
	_, ts := newTestServer(t)
	info := createTenant(t, ts.URL, "a", opts)

	short := make([]float64, info.InputDim-1)
	good := make([]float64, info.InputDim)
	for _, tc := range []struct {
		name string
		path string
		body any
	}{
		{"classify empty", "/v1/a/classify", map[string]any{}},
		{"classify short", "/v1/a/classify", map[string]any{"x": short}},
		{"train empty", "/v1/a/train", map[string]any{}},
		{"train no label", "/v1/a/train", map[string]any{"x": good}},
		{"train short", "/v1/a/train", map[string]any{"x": short, "y": 0}},
		{"train bad label", "/v1/a/train", map[string]any{"x": good, "y": info.Classes}},
		{"train neg label", "/v1/a/train", map[string]any{"x": good, "y": -1}},
	} {
		resp, body := doJSON(t, http.MethodPost, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
	if got := counterValue(t, ts.URL, "a", "train.accepted"); got != 0 {
		t.Fatalf("train.accepted %d after rejected requests, want 0", got)
	}
}

// TestRequestBodyLimit pins the body cap: a create, classify or train
// body over maxBodyBytes is refused with 413 before it is decoded, and
// the tenant's state is untouched.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "a", testOpts(63))

	// {"x":[0,0,…,0]} one cap's worth of digits long.
	huge := append([]byte(`{"x":[`), bytes.Repeat([]byte("0,"), maxBodyBytes/2)...)
	huge = append(huge, "0]}"...)
	for _, tc := range []struct{ name, method, path string }{
		{"create", http.MethodPut, "/v1/tenants/b"},
		{"classify", http.MethodPost, "/v1/a/classify"},
		{"train", http.MethodPost, "/v1/a/train"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body status %d, want 413", tc.name, resp.StatusCode)
		}
	}
	if got := counterValue(t, ts.URL, "a", "train.accepted"); got != 0 {
		t.Fatalf("train.accepted %d after an oversized train body, want 0", got)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/b/counters", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tenant b: status %d after an oversized create body, want 404", resp.StatusCode)
	}
}

// TestObservabilityEndpoints exercises accuracy, trace and the
// aggregated debug dump: accuracy matches the reference Evaluate, the
// trace endpoint serves Chrome JSON for traced tenants and 404s
// otherwise, and /debug/counters carries every tenant's counters.
func TestObservabilityEndpoints(t *testing.T) {
	opts := testOpts(71)
	opts.Trace = true
	plain := testOpts(72)
	_, ts := newTestServer(t)
	createTenant(t, ts.URL, "traced", opts)
	createTenant(t, ts.URL, "plain", plain)
	ref := refModel(t, opts)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/traced/accuracy", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accuracy: status %d: %s", resp.StatusCode, body)
	}
	var acc struct {
		Accuracy float64 `json:"accuracy"`
		Version  uint64  `json:"version"`
		Samples  int     `json:"samples"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if want := ref.Evaluate().Accuracy(); acc.Accuracy != want {
		t.Fatalf("accuracy %v, want reference %v", acc.Accuracy, want)
	}
	if acc.Version != 1 || acc.Samples != len(ref.TestFeatures()) {
		t.Fatalf("accuracy meta %+v, want version 1 over %d samples", acc, len(ref.TestFeatures()))
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/traced/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("trace endpoint did not serve Chrome trace JSON: %v", err)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/plain/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced tenant trace: status %d, want 404", resp.StatusCode)
	}

	// Counters appear once their first event lands; classify so the
	// batch counters exist in the dump.
	classify(t, ts.URL, "traced", [][]float64{ref.TestFeatures()[0].X})

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/debug/counters", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug counters: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{"traced.classify.batches", "plain.version", "traced.train.channel.wm_high"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/debug/counters missing %q:\n%s", want, text)
		}
	}
}

// submitReturns runs submit on its own goroutine and fails the test
// unless it returns within a few seconds.
func submitReturns(t *testing.T, what string, b *batcher, ctx context.Context) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.submit(ctx, classifyReq{resp: make(chan classifyResp, 1)})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: submit still blocked 5s after its client went away", what)
		return nil
	}
}

// TestSubmitStopsWaitingWhenClientGone pins that a classify submission
// stops waiting once its request context is done, both before the
// dispatcher accepts it and while it waits for the batch's answer.
func TestSubmitStopsWaitingWhenClientGone(t *testing.T) {
	// A dispatcher that never accepts: the context is already done.
	idle := newBatcher(4)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if err := submitReturns(t, "before acceptance", idle, gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("before acceptance: err %v, want context.Canceled", err)
	}

	// A dispatcher that accepts but never answers: the client leaves
	// after acceptance.
	stuck := newBatcher(4)
	accepted := make(chan struct{})
	go func() {
		<-stuck.reqs
		close(accepted)
	}()
	leaving, leave := context.WithCancel(context.Background())
	go func() {
		<-accepted
		leave()
	}()
	if err := submitReturns(t, "awaiting the answer", stuck, leaving); !errors.Is(err, context.Canceled) {
		t.Fatalf("awaiting the answer: err %v, want context.Canceled", err)
	}
}

// parkRequest sends req straight onto the dispatcher's channel, giving
// up once the dispatcher has exited. It is a named function so
// waitParked can find its goroutines in a stack dump.
func parkRequest(b *batcher, req classifyReq) {
	select {
	case b.reqs <- req:
	case <-b.done:
	}
}

// waitParked blocks until n goroutines are parked in parkRequest's
// select, waiting for the dispatcher to take their requests.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "serve.parkRequest(") {
				parked++
			}
		}
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked after 5s, want %d", parked, n)
		}
		runtime.Gosched()
	}
}

// TestBatcherServesOnArrival pins the dispatch rule: a lone request on
// an idle dispatcher is served at once as a batch of one, and requests
// that park while a batch is in flight leave together in the next
// batch, up to maxBatch vectors.
func TestBatcherServesOnArrival(t *testing.T) {
	b := newBatcher(4)
	type served struct{ reqs, size int }
	batches := make(chan served)
	release := make(chan struct{})
	// The serve func gives up once close is called, so a failing
	// assertion cannot leave the dispatcher blocked in it.
	go b.run(func(batch []classifyReq, size int) {
		select {
		case batches <- served{len(batch), size}:
		case <-b.quit:
			return
		}
		select {
		case <-release:
		case <-b.quit:
		}
	})
	defer b.close()
	req := func(vectors int) classifyReq {
		return classifyReq{xs: make([][]float64, vectors), resp: make(chan classifyResp, 1)}
	}

	go parkRequest(b, req(1))
	if got := <-batches; got != (served{1, 1}) {
		t.Fatalf("lone request served as %+v, want a batch of one", got)
	}
	// The first batch is held in flight while three more requests park.
	for range 3 {
		go parkRequest(b, req(2))
	}
	waitParked(t, 3)
	release <- struct{}{}
	if got := <-batches; got != (served{2, 4}) {
		t.Fatalf("parked requests served as %+v, want 2 requests / 4 vectors (maxBatch)", got)
	}
	release <- struct{}{}
	if got := <-batches; got != (served{1, 2}) {
		t.Fatalf("request over maxBatch served as %+v, want 1 request / 2 vectors", got)
	}
	release <- struct{}{}
}

// FuzzHandlers posts fuzzer-chosen bodies to one small tenant's
// classify and train routes: no body may panic a handler or draw a 5xx.
// Create bodies are left out because each one builds a model.
func FuzzHandlers(f *testing.F) {
	srv := New()
	f.Cleanup(srv.Close)
	h := srv.Handler()
	opts, err := json.Marshal(testOpts(91))
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/a", bytes.NewReader(opts)))
	if rec.Code != http.StatusCreated {
		f.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	var info TenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		f.Fatal(err)
	}

	// The TestRequestValidation cases (route false = classify, true =
	// train), valid bodies for each route, and raw malformed JSON.
	short := make([]float64, info.InputDim-1)
	good := make([]float64, info.InputDim)
	huge := make([]float64, info.InputDim)
	for i := range huge {
		huge[i] = 1e308 * float64(1-2*(i%2))
	}
	for _, tc := range []struct {
		train bool
		body  any
	}{
		{false, map[string]any{}},
		{false, map[string]any{"x": short}},
		{true, map[string]any{}},
		{true, map[string]any{"x": good}},
		{true, map[string]any{"x": short, "y": 0}},
		{true, map[string]any{"x": good, "y": info.Classes}},
		{true, map[string]any{"x": good, "y": -1}},
		{false, map[string]any{"x": good, "inputs": [][]float64{good, good}}},
		{true, map[string]any{"x": good, "y": 1, "samples": []map[string]any{{"x": good, "y": 0}}}},
		{false, map[string]any{"x": huge}},
		{true, map[string]any{"x": huge, "y": 0}},
	} {
		b, err := json.Marshal(tc.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tc.train, b)
	}
	f.Add(true, []byte(`{"samples":[{"x":null,"y":0}]}`))
	f.Add(false, []byte(`{"inputs":[[],null]`))

	f.Fuzz(func(t *testing.T, train bool, body []byte) {
		path := "/v1/a/classify"
		if train {
			path = "/v1/a/train"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}

// TestClassifyCanceledCounted sends a classify whose client has already
// gone: the handler returns without a batch and counts it as
// classify.canceled.
func TestClassifyCanceledCounted(t *testing.T) {
	srv, ts := newTestServer(t)
	info := createTenant(t, ts.URL, "c", testOpts(81))
	body, err := json.Marshal(map[string]any{"x": make([]float64, info.InputDim)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/c/classify", bytes.NewReader(body)).WithContext(ctx)
	srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
	if got := counterValue(t, ts.URL, "c", "classify.canceled"); got != 1 {
		t.Fatalf("classify.canceled = %d, want 1", got)
	}
	if got := counterValue(t, ts.URL, "c", "classify.batches"); got != 0 {
		t.Fatalf("classify.batches = %d, want 0: a gone client's request was served", got)
	}
}
