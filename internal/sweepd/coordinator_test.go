package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/resultstore"
)

// testPlan is the suite's toy grid: 2 protocols x 2 seeds of tiny
// 4-processor points — real simulations, so envelopes are genuine, but
// milliseconds each.
func testPlan() engine.Plan {
	return engine.Plan{
		Variants: []engine.Variant{
			{Name: "tokenb-torus", Point: engine.Point{Protocol: "tokenb", Topo: "torus", Procs: 4}},
			{Name: "directory-torus", Point: engine.Point{Protocol: "directory", Topo: "torus", Procs: 4}},
		},
		Workloads: []string{"oltp"},
		Seeds:     []uint64{1, 2},
		Ops:       60,
		Warmup:    20,
	}
}

// fakeClock is the injectable time source: lease expiry in these tests
// is driven by advance(), never by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// envelopes computes every job's result out-of-band: the reference
// payloads tests deliver to the coordinator by hand.
func envelopes(t *testing.T, plan engine.Plan) (jobs []engine.Job, keys []string, envs [][]byte) {
	t.Helper()
	jobs, err := plan.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	_, keys, err = Fingerprint(jobs)
	if err != nil {
		t.Fatal(err)
	}
	envs = make([][]byte, len(jobs))
	for i, job := range jobs {
		run, snap, err := engine.RunPointObserved(job.Point, nil)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		envs[i], err = resultstore.Encode(keys[i], engine.CodeVersion, run, snap)
		if err != nil {
			t.Fatal(err)
		}
	}
	return jobs, keys, envs
}

// serialJSONL runs the plan through the in-process engine: the byte
// reference every distributed execution must reproduce.
func serialJSONL(t *testing.T, plan engine.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	eng := engine.Engine{Workers: 1}
	if _, err := eng.Execute(context.Background(), plan, &engine.JSONLSink{W: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// do drives one coordinator endpoint directly (no network).
func do(t *testing.T, h http.Handler, method, path string, in, out any) int {
	t.Helper()
	var body *bytes.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func leaseAll(t *testing.T, h http.Handler, worker string, max int) LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	if code := do(t, h, "POST", "/lease", LeaseRequest{Worker: worker, Max: max}, &resp); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	return resp
}

// TestLeaseLifecycle covers the full lease state machine with an
// injected clock: issue, heartbeat renewal, expiry, re-issue to another
// worker, late delivery from the original holder, and the idempotent
// byte-identical duplicate — ending with output byte-identical to a
// serial run.
func TestLeaseLifecycle(t *testing.T) {
	plan := testPlan()
	_, _, envs := envelopes(t, plan)
	ref := serialJSONL(t, plan)

	clk := newFakeClock()
	ttl := 10 * time.Second
	var out bytes.Buffer
	var logBuf bytes.Buffer
	c := &Coordinator{Plan: plan, LeaseTTL: ttl, Now: clk.now, Log: &logBuf}
	if err := c.Init(&engine.JSONLSink{W: &out}); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()

	// Worker A takes the whole plan.
	respA := leaseAll(t, h, "A", 10)
	if len(respA.Assignments) != 4 || respA.Done {
		t.Fatalf("A leased %d assignments (done=%v), want 4", len(respA.Assignments), respA.Done)
	}
	var health Health
	do(t, h, "GET", "/healthz", nil, &health)
	if health.Leased != 4 || health.Workers != 1 {
		t.Fatalf("healthz after lease: %+v", health)
	}

	// Half a TTL later A heartbeats; the leases survive past their
	// original deadline.
	clk.advance(ttl / 2)
	var ids []string
	for _, a := range respA.Assignments {
		ids = append(ids, a.Lease)
	}
	var hb HeartbeatResponse
	if code := do(t, h, "POST", "/heartbeat", HeartbeatRequest{Worker: "A", Leases: ids}, &hb); code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", code)
	}
	if len(hb.Expired) != 0 {
		t.Fatalf("heartbeat reported expired leases %v before the TTL", hb.Expired)
	}
	clk.advance(3 * ttl / 4) // past the original deadline, inside the renewed one
	if resp := leaseAll(t, h, "B", 10); len(resp.Assignments) != 0 || resp.WaitMillis <= 0 {
		t.Fatalf("B got %d assignments while A's renewed leases live (wait=%d)", len(resp.Assignments), resp.WaitMillis)
	}

	// A goes silent. One TTL later its leases expire lazily at B's next
	// request and every point re-issues.
	clk.advance(ttl + time.Second)
	respB := leaseAll(t, h, "B", 10)
	if len(respB.Assignments) != 4 {
		t.Fatalf("B got %d re-issued assignments, want 4", len(respB.Assignments))
	}
	do(t, h, "GET", "/healthz", nil, &health)
	if health.Expired != 4 {
		t.Fatalf("expired = %d, want 4", health.Expired)
	}
	if !strings.Contains(logBuf.String(), "expired; re-issuing") {
		t.Errorf("expiry was not logged: %q", logBuf.String())
	}
	// A's heartbeat now learns its leases are gone.
	hb = HeartbeatResponse{}
	do(t, h, "POST", "/heartbeat", HeartbeatRequest{Worker: "A", Leases: ids}, &hb)
	if len(hb.Expired) != 4 {
		t.Fatalf("A's heartbeat reported %d expired, want 4", len(hb.Expired))
	}

	// A's late delivery for point 0 is still accepted (at-least-once):
	// deterministic results make it exactly the envelope B would send.
	if code := do(t, h, "POST", "/result", ResultRequest{Worker: "A", Lease: ids[0], Index: 0, Envelope: envs[0]}, nil); code != http.StatusOK {
		t.Fatalf("late result: HTTP %d", code)
	}
	// B's byte-identical duplicate is idempotent.
	var lease0 string
	for _, a := range respB.Assignments {
		if a.Index == 0 {
			lease0 = a.Lease
		}
	}
	if code := do(t, h, "POST", "/result", ResultRequest{Worker: "B", Lease: lease0, Index: 0, Envelope: envs[0]}, nil); code != http.StatusOK {
		t.Fatalf("duplicate result: HTTP %d", code)
	}
	// B finishes the rest.
	for _, a := range respB.Assignments {
		if a.Index == 0 {
			continue
		}
		if code := do(t, h, "POST", "/result", ResultRequest{Worker: "B", Lease: a.Lease, Index: a.Index, Envelope: envs[a.Index]}, nil); code != http.StatusOK {
			t.Fatalf("result %d: HTTP %d", a.Index, code)
		}
	}
	if resp := leaseAll(t, h, "B", 1); !resp.Done {
		t.Error("lease after completion should report done")
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Errorf("distributed output differs from serial run:\n got: %s\nwant: %s", out.Bytes(), ref)
	}
}

// TestDuplicateDivergenceIsFatal: a duplicate envelope whose bytes
// differ from the first accepted one must stop the coordinator loudly —
// never last-write-wins.
func TestDuplicateDivergenceIsFatal(t *testing.T) {
	plan := testPlan()
	jobs, keys, envs := envelopes(t, plan)

	clk := newFakeClock()
	c := &Coordinator{Plan: plan, Now: clk.now}
	if err := c.Init(&engine.JSONLSink{W: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	resp := leaseAll(t, h, "A", 1)
	idx := resp.Assignments[0].Index
	if code := do(t, h, "POST", "/result", ResultRequest{Worker: "A", Lease: resp.Assignments[0].Lease, Index: idx, Envelope: envs[idx]}, nil); code != http.StatusOK {
		t.Fatalf("first result: HTTP %d", code)
	}

	// A "divergent" second delivery: same key, different run contents.
	run, snap, err := engine.RunPointObserved(jobs[idx].Point, nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Transactions++
	bad, err := resultstore.Encode(keys[idx], engine.CodeVersion, run, snap)
	if err != nil {
		t.Fatal(err)
	}
	if code := do(t, h, "POST", "/result", ResultRequest{Worker: "B", Lease: "bogus", Index: idx, Envelope: bad}, nil); code != http.StatusConflict {
		t.Fatalf("divergent duplicate: HTTP %d, want %d", code, http.StatusConflict)
	}
	var health Health
	if code := do(t, h, "GET", "/healthz", nil, &health); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after divergence: HTTP %d, want 503", code)
	}
	if code := do(t, h, "POST", "/lease", LeaseRequest{Worker: "B", Max: 1}, nil); code != http.StatusConflict {
		t.Errorf("lease after divergence: HTTP %d, want 409", code)
	}
	err = c.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "DIVERGES") {
		t.Errorf("Wait = %v, want divergence error", err)
	}
}

// TestResultKeyMismatchIsFatal: an envelope keyed for a different point
// than the index names means the worker expanded a different plan.
func TestResultKeyMismatchIsFatal(t *testing.T) {
	plan := testPlan()
	_, _, envs := envelopes(t, plan)
	c := &Coordinator{Plan: plan, Now: newFakeClock().now}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	resp := leaseAll(t, h, "A", 1)
	wrong := envs[resp.Assignments[0].Index+1]
	if code := do(t, h, "POST", "/result", ResultRequest{Worker: "A", Lease: resp.Assignments[0].Lease, Index: resp.Assignments[0].Index, Envelope: wrong}, nil); code != http.StatusConflict {
		t.Fatalf("mismatched key: HTTP %d, want 409", code)
	}
	if err := c.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "plan divergence") {
		t.Errorf("Wait = %v, want plan-divergence error", err)
	}
}

// TestFailedPointCompletesPlan: a deterministic point failure is
// recorded like the engine records it — the plan still completes, the
// failed row is not emitted, and Wait surfaces the error.
func TestFailedPointCompletesPlan(t *testing.T) {
	plan := testPlan()
	_, _, envs := envelopes(t, plan)
	var out bytes.Buffer
	c := &Coordinator{Plan: plan, Now: newFakeClock().now}
	if err := c.Init(&engine.JSONLSink{W: &out}); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	resp := leaseAll(t, h, "A", 10)
	for i, a := range resp.Assignments {
		req := ResultRequest{Worker: "A", Lease: a.Lease, Index: a.Index}
		if i == 0 {
			req.Error = "synthetic failure"
		} else {
			req.Envelope = envs[a.Index]
		}
		if code := do(t, h, "POST", "/result", req, nil); code != http.StatusOK {
			t.Fatalf("result %d: HTTP %d", a.Index, code)
		}
	}
	err := c.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("Wait = %v, want the point's failure", err)
	}
	var health Health
	do(t, h, "GET", "/healthz", nil, &health)
	if health.Done != 4 || health.Failed != 1 {
		t.Errorf("healthz: %+v, want done=4 failed=1", health)
	}
	if n := bytes.Count(out.Bytes(), []byte("\n")); n != 3 {
		t.Errorf("emitted %d rows, want 3 (failed row is skipped)", n)
	}
}

// TestReusePreload: with a store and Reuse, archived points complete at
// Init without ever being leased, and the emitted rows are still the
// serial reference bytes.
func TestReusePreload(t *testing.T) {
	plan := testPlan()
	_, keys, envs := envelopes(t, plan)
	ref := serialJSONL(t, plan)

	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, env := range envs {
		if err := st.PutRaw(keys[i], env); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	c := &Coordinator{Plan: plan, Store: st, Reuse: true, Now: newFakeClock().now}
	if err := c.Init(&engine.JSONLSink{W: &out}); err != nil {
		t.Fatal(err)
	}
	if resp := leaseAll(t, c.Handler(), "A", 10); !resp.Done || len(resp.Assignments) != 0 {
		t.Fatalf("fully-archived plan still leased work: %+v", resp)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), ref) {
		t.Errorf("preloaded output differs from serial run")
	}
	var health Health
	do(t, c.Handler(), "GET", "/healthz", nil, &health)
	if health.Cached != 4 || health.Done != 4 {
		t.Errorf("healthz: %+v, want cached=4 done=4", health)
	}
}

// TestWorkerStatsAndLiveness: the per-worker telemetry map tracks
// leases, completions, failures, and heartbeat age; LiveWorkers drops a
// worker two TTLs after its last contact.
func TestWorkerStatsAndLiveness(t *testing.T) {
	plan := testPlan()
	_, _, envs := envelopes(t, plan)
	clk := newFakeClock()
	ttl := 10 * time.Second
	c := &Coordinator{Plan: plan, LeaseTTL: ttl, Now: clk.now}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	respA := leaseAll(t, h, "A", 2)
	leaseAll(t, h, "B", 1)
	do(t, h, "POST", "/result", ResultRequest{Worker: "A", Lease: respA.Assignments[0].Lease, Index: respA.Assignments[0].Index, Envelope: envs[respA.Assignments[0].Index]}, nil)

	stats := c.WorkerStats()
	if len(stats) != 2 || stats[0].ID != "A" || stats[1].ID != "B" {
		t.Fatalf("WorkerStats = %+v", stats)
	}
	if stats[0].Leases != 1 || stats[0].Completed != 1 {
		t.Errorf("A: %+v, want 1 lease held and 1 completed", stats[0])
	}
	if got := c.LiveWorkers(); got != 2 {
		t.Errorf("LiveWorkers = %d, want 2", got)
	}
	clk.advance(3 * ttl)
	if got := c.LiveWorkers(); got != 0 {
		t.Errorf("LiveWorkers after silence = %d, want 0", got)
	}
	if age := c.WorkerStats()[0].LastSeenSec; age < (3 * ttl).Seconds() {
		t.Errorf("LastSeenSec = %v, want >= %v", age, (3 * ttl).Seconds())
	}
}

// TestWorkerRejectsForeignPlan: a worker whose local expansion differs
// from the coordinator's fingerprint must refuse to take work.
func TestWorkerRejectsForeignPlan(t *testing.T) {
	plan := testPlan()
	c := &Coordinator{Plan: plan, Now: newFakeClock().now}
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := &Worker{
		ID:      "w1",
		BaseURL: srv.URL,
		Resolve: func(PlanSpec) (engine.Plan, error) {
			p := testPlan()
			p.Ops = 999 // a genuinely different plan
			return p, nil
		},
		RetryBase: time.Millisecond, RetryBudget: time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("Run = %v, want fingerprint mismatch", err)
	}
}

// TestFingerprintStability: equal plans agree, different plans differ,
// and the fingerprint covers mutation effects (hashed by value through
// PointKey's effective config).
func TestFingerprintStability(t *testing.T) {
	jobsA, err := testPlan().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobsB, err := testPlan().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	fpA, keysA, err := Fingerprint(jobsA)
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := Fingerprint(jobsB)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Error("equal plans produced different fingerprints")
	}
	if len(keysA) != len(jobsA) {
		t.Fatalf("got %d keys for %d jobs", len(keysA), len(jobsA))
	}
	for i, k := range keysA {
		if k == "" {
			t.Errorf("job %d has no key; test plan should be fully cacheable", i)
		}
	}
	other := testPlan()
	other.Seeds = []uint64{1, 3}
	jobsC, err := other.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	fpC, _, err := Fingerprint(jobsC)
	if err != nil {
		t.Fatal(err)
	}
	if fpC == fpA {
		t.Error("different plans share a fingerprint")
	}
}
