package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"tokencoherence/internal/engine"
	"tokencoherence/internal/resultstore"
	"tokencoherence/internal/stats"
)

// Worker is the execution half of sweepd: a daemon that fetches the
// coordinator's plan description, rebuilds the plan locally (closures
// never travel — see PlanSpec), verifies the fingerprint, and then loops
// leasing points, simulating them through the normal engine path, and
// streaming result envelopes back with retry and exponential backoff.
// A heartbeat goroutine renews every active lease; if the worker dies,
// the renewals stop and the coordinator re-issues its points.
type Worker struct {
	// ID names this worker to the coordinator (stable across requests).
	ID string
	// BaseURL is the coordinator's address, e.g. "http://host:8080".
	BaseURL string
	// Resolve rebuilds the plan a PlanSpec names — typically a thin
	// wrapper over sweeps.ByKind. The resolved plan must expand to the
	// coordinator's exact job sequence; Run verifies via Fingerprint.
	Resolve func(spec PlanSpec) (engine.Plan, error)
	// Parallel is the number of points simulated concurrently (≤ 0 = 1).
	Parallel int
	// Store, when set, is this worker's local content-addressed archive:
	// computed points are written through, and with Reuse, archived
	// points are recalled instead of re-simulated (a worker that shares
	// a filesystem store with earlier sweeps serves them instantly).
	Store *resultstore.Store
	Reuse bool
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// Log, when set, receives operational notices.
	Log io.Writer
	// RetryBase/RetryMax bound the exponential backoff for coordinator
	// requests (defaults 100ms / 5s); RetryBudget caps how long one
	// delivery retries before the worker gives up (default 60s) — a
	// coordinator that stays unreachable that long is gone.
	RetryBase, RetryMax, RetryBudget time.Duration

	mu     sync.Mutex
	active map[string]bool // lease IDs currently held, for heartbeats
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, format, args...)
	}
}

func (w *Worker) retryBase() time.Duration {
	if w.RetryBase > 0 {
		return w.RetryBase
	}
	return 100 * time.Millisecond
}

func (w *Worker) retryMax() time.Duration {
	if w.RetryMax > 0 {
		return w.RetryMax
	}
	return 5 * time.Second
}

func (w *Worker) retryBudget() time.Duration {
	if w.RetryBudget > 0 {
		return w.RetryBudget
	}
	return 60 * time.Second
}

// fatalStatusError marks an HTTP response that must not be retried: the
// coordinator rejected the request for cause (divergence, bad plan), not
// because of a transient failure.
type fatalStatusError struct {
	status int
	body   string
}

func (e *fatalStatusError) Error() string {
	return fmt.Sprintf("coordinator rejected request (%d): %s", e.status, e.body)
}

// postJSON issues one POST and decodes the response into out (when
// non-nil). 4xx responses return a *fatalStatusError; network failures
// and 5xx responses return retryable errors.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return &fatalStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
		}
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postRetry wraps postJSON in exponential backoff until success, a fatal
// (4xx) rejection, ctx cancellation, or the retry budget running out.
func (w *Worker) postRetry(ctx context.Context, path string, in, out any) error {
	delay := w.retryBase()
	deadline := time.Now().Add(w.retryBudget())
	for {
		err := w.postJSON(ctx, path, in, out)
		if err == nil {
			return nil
		}
		var fatal *fatalStatusError
		if errors.As(err, &fatal) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sweepd worker: giving up on %s after %s: %w", path, w.retryBudget(), err)
		}
		w.logf("sweepd worker %s: %s failed (%v); retrying in %s\n", w.ID, path, err, delay)
		if !sleepCtx(ctx, delay) {
			return ctx.Err()
		}
		if delay *= 2; delay > w.retryMax() {
			delay = w.retryMax()
		}
	}
}

// sleepCtx sleeps d or until ctx is done, reporting whether it slept
// the full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// fetchPlan retrieves and verifies the coordinator's plan, returning the
// locally expanded jobs and per-job keys.
func (w *Worker) fetchPlan(ctx context.Context) (PlanInfo, []engine.Job, []string, error) {
	var info PlanInfo
	delay := w.retryBase()
	deadline := time.Now().Add(w.retryBudget())
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.BaseURL+"/plan", nil)
		if err != nil {
			return info, nil, nil, err
		}
		resp, err := w.client().Do(req)
		if err == nil {
			func() {
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("/plan: HTTP %d", resp.StatusCode)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&info)
			}()
			if err == nil {
				break
			}
		}
		if ctx.Err() != nil {
			return info, nil, nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return info, nil, nil, fmt.Errorf("sweepd worker: coordinator %s unreachable for %s: %w", w.BaseURL, w.retryBudget(), err)
		}
		w.logf("sweepd worker %s: waiting for coordinator %s (%v)\n", w.ID, w.BaseURL, err)
		if !sleepCtx(ctx, delay) {
			return info, nil, nil, ctx.Err()
		}
		if delay *= 2; delay > w.retryMax() {
			delay = w.retryMax()
		}
	}

	if info.CodeVersion != engine.CodeVersion {
		return info, nil, nil, fmt.Errorf("sweepd worker: coordinator runs %s but this binary is %s; refusing to compute points under a different simulator version",
			info.CodeVersion, engine.CodeVersion)
	}
	plan, err := w.Resolve(info.Spec)
	if err != nil {
		return info, nil, nil, fmt.Errorf("sweepd worker: cannot resolve advertised plan %+v: %w", info.Spec, err)
	}
	jobs, err := plan.Jobs()
	if err != nil {
		return info, nil, nil, err
	}
	fp, keys, err := Fingerprint(jobs)
	if err != nil {
		return info, nil, nil, err
	}
	if len(jobs) != info.Total || fp != info.Fingerprint {
		return info, nil, nil, fmt.Errorf("sweepd worker: local plan expansion (%d jobs, fingerprint %.12s…) does not match the coordinator's (%d jobs, %.12s…); are the binaries identical?",
			len(jobs), fp, info.Total, info.Fingerprint)
	}
	return info, jobs, keys, nil
}

// Run executes the worker loop until the plan completes, the context is
// cancelled, or a fatal disagreement with the coordinator surfaces.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		return fmt.Errorf("sweepd worker: empty ID")
	}
	if w.Resolve == nil {
		return fmt.Errorf("sweepd worker: no Resolve function")
	}
	info, jobs, keys, err := w.fetchPlan(ctx)
	if err != nil {
		return err
	}
	w.logf("sweepd worker %s: joined %s: plan %q/%q, %d points, lease TTL %dms\n",
		w.ID, w.BaseURL, info.Spec.Kind, info.Spec.Workload, info.Total, info.LeaseTTLMillis)

	w.mu.Lock()
	w.active = make(map[string]bool)
	w.mu.Unlock()

	// Heartbeats renew every active lease at a third of the TTL: two
	// beats may be lost before the lease expires.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	var hbWG sync.WaitGroup
	ttl := time.Duration(info.LeaseTTLMillis) * time.Millisecond
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx, ttl/3)
	}()

	slots := w.Parallel
	if slots < 1 {
		slots = 1
	}
	errCh := make(chan error, slots)
	slotCtx, stopSlots := context.WithCancel(ctx)
	defer stopSlots()
	for s := 0; s < slots; s++ {
		go func() { errCh <- w.slotLoop(slotCtx, jobs, keys) }()
	}
	var firstErr error
	for s := 0; s < slots; s++ {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
			stopSlots() // one fatal slot stops the rest
		}
	}
	stopHB()
	hbWG.Wait()
	return firstErr
}

// heartbeatLoop renews the active leases until ctx is done. Renewal
// failures are logged, not fatal: a missed beat only narrows the expiry
// margin, and the run stays correct either way (at-least-once).
func (w *Worker) heartbeatLoop(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		leases := make([]string, 0, len(w.active))
		for id := range w.active {
			leases = append(leases, id)
		}
		w.mu.Unlock()
		if len(leases) == 0 {
			continue
		}
		var resp HeartbeatResponse
		if err := w.postJSON(ctx, "/heartbeat", HeartbeatRequest{Worker: w.ID, Leases: leases}, &resp); err != nil {
			w.logf("sweepd worker %s: heartbeat failed: %v\n", w.ID, err)
			continue
		}
		for _, id := range resp.Expired {
			// The point was re-issued; keep computing anyway — the
			// coordinator accepts late byte-identical duplicates.
			w.logf("sweepd worker %s: lease %s expired under us; finishing anyway (duplicate is safe)\n", w.ID, id)
		}
	}
}

// slotLoop is one execution slot: lease a point, run it, deliver the
// envelope, repeat until the coordinator reports the plan done.
func (w *Worker) slotLoop(ctx context.Context, jobs []engine.Job, keys []string) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var resp LeaseResponse
		if err := w.postRetry(ctx, "/lease", LeaseRequest{Worker: w.ID, Max: 1}, &resp); err != nil {
			return err
		}
		if len(resp.Assignments) == 0 {
			if resp.Done {
				return nil
			}
			wait := time.Duration(resp.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		for _, a := range resp.Assignments {
			if err := w.runAssignment(ctx, a, jobs, keys); err != nil {
				return err
			}
		}
	}
}

// runAssignment computes one leased point and streams its envelope back.
func (w *Worker) runAssignment(ctx context.Context, a Assignment, jobs []engine.Job, keys []string) error {
	if a.Index < 0 || a.Index >= len(jobs) {
		return fmt.Errorf("sweepd worker: leased index %d outside plan [0, %d)", a.Index, len(jobs))
	}
	w.mu.Lock()
	w.active[a.Lease] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.active, a.Lease)
		w.mu.Unlock()
	}()

	job, key := jobs[a.Index], keys[a.Index]
	run, snap, err := w.runPoint(job, key)
	req := ResultRequest{Worker: w.ID, Lease: a.Lease, Index: a.Index}
	if err != nil {
		req.Error = err.Error()
		w.logf("sweepd worker %s: point %d failed: %v\n", w.ID, a.Index, err)
	} else {
		env, err := resultstore.Encode(key, engine.CodeVersion, run, snap)
		if err != nil {
			req.Error = err.Error()
		} else {
			req.Envelope = env
		}
	}
	return w.postRetry(ctx, "/result", req, nil)
}

// runPoint executes one point with engine-style panic isolation,
// consulting and filling the worker's local store when one is attached.
func (w *Worker) runPoint(job engine.Job, key string) (run *stats.Run, snap *stats.Snapshot, err error) {
	if w.Store != nil && w.Reuse && key != "" {
		r, s, found, gerr := w.Store.Get(key)
		if gerr != nil {
			return nil, nil, fmt.Errorf("sweepd worker: store get %s: %w", key, gerr)
		}
		if found {
			return r, s, nil
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweepd worker: point %s/%s/%s panicked: %v\n%s",
				job.Point.Protocol, job.Point.Topo, job.Point.Workload, r, debug.Stack())
		}
	}()
	run, snap, err = engine.RunPointObserved(job.Point, nil)
	if err == nil && w.Store != nil && key != "" {
		if perr := w.Store.Put(key, run, snap); perr != nil {
			return nil, nil, fmt.Errorf("sweepd worker: store put %s: %w", key, perr)
		}
	}
	return run, snap, err
}
