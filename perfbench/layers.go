package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// distNote summarizes a sample: its count, median and the highest
// percentile that still has at least ten samples beyond it.
func distNote(name string, xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := fmt.Sprintf("%s: n=%d median=%.4g", name, len(s), median(s))
	if len(s) >= 20 {
		pct := 100 * (len(s) - 10) / len(s)
		out += fmt.Sprintf(" p%d=%.4g", pct, s[len(s)*pct/100])
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// hostCounters is a reading of the process's cumulative host-side
// counters; deltas between two readings describe the work in between.
type hostCounters struct {
	wall       time.Time
	cpu        time.Duration // process user+system CPU
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // runtime/metrics estimate of GC CPU seconds
	busyCPU    float64 // runtime/metrics total minus idle CPU seconds
	steal      float64 // hypervisor steal, seconds summed over CPUs
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readHost() hostCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u64 := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f64 := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return hostCounters{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocBytes: u64(0),
		allocObjs:  u64(1),
		gcCycles:   u64(2),
		gcCPU:      f64(3),
		busyCPU:    f64(4) - f64(5),
		steal:      stealSeconds(),
	}
}

// stealSeconds reads the time the hypervisor ran other guests on this
// machine's CPUs (the steal column of /proc/stat), summed over CPUs; 0
// where /proc/stat is unavailable. The kernel leaves this time out of
// process CPU time, which is why host time is measured as CPU time.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// hostDelta accumulates host counters over the rounds a metric covers.
type hostDelta struct {
	wall                  time.Duration
	steal                 float64
	allocBytes, allocObjs uint64
	gcCycles              uint64
	gcCPU, busyCPU        float64
}

func (d *hostDelta) add(a, b hostCounters) {
	d.wall += b.wall.Sub(a.wall)
	d.steal += b.steal - a.steal
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocObjs += b.allocObjs - a.allocObjs
	d.gcCycles += b.gcCycles - a.gcCycles
	d.gcCPU += b.gcCPU - a.gcCPU
	d.busyCPU += b.busyCPU - a.busyCPU
}

func (d *hostDelta) merge(o hostDelta) {
	d.wall += o.wall
	d.steal += o.steal
	d.allocBytes += o.allocBytes
	d.allocObjs += o.allocObjs
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.busyCPU += o.busyCPU
}

// stealFrac is the share of the machine's CPU time the hypervisor stole
// over d.
func (d hostDelta) stealFrac() float64 {
	if d.wall <= 0 {
		return 0
	}
	return d.steal / (d.wall.Seconds() * float64(runtime.NumCPU()))
}

// runtimeValues reports the Go runtime layer's per-layer metrics over d,
// which covered ops simulated operations in rounds rounds.
func (d hostDelta) runtimeValues(ops float64, rounds int, into map[string]float64) {
	if ops > 0 {
		into["runtime.alloc_bytes_per_op"] = float64(d.allocBytes) / ops
		into["runtime.mallocs_per_op"] = float64(d.allocObjs) / ops
	}
	if rounds > 0 {
		into["runtime.gc_cycles"] = float64(d.gcCycles) / float64(rounds)
	}
	if d.busyCPU > 0 {
		into["runtime.gc_cpu_frac"] = d.gcCPU / d.busyCPU
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the process's peak resident set between readings by
// sampling /proc/self/statm, so each round reports its own peak and the
// benchmark can take the median over rounds rather than a single
// process-lifetime maximum that depends on one unlucky GC cycle.
type rssSampler struct {
	stop, done chan struct{}
	peak       atomic.Int64 // bytes since the last takePeak
}

// rssInterval is how often the sampler reads the resident set.
const rssInterval = 5 * time.Millisecond

// startRSSSampler starts sampling every interval; it returns nil where
// /proc/self/statm is unavailable.
func startRSSSampler(every time.Duration) *rssSampler {
	if _, err := residentBytes(); err != nil {
		return nil
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss, err := residentBytes()
	if err != nil {
		return
	}
	for {
		old := s.peak.Load()
		if rss <= old || s.peak.CompareAndSwap(old, rss) {
			return
		}
	}
}

// takePeak returns the peak resident set in MB since the previous call
// (or the start) and starts a new interval at the current size.
// Without a sampler it falls back to the process-lifetime peak.
func (s *rssSampler) takePeak() float64 {
	if s == nil {
		return peakRSSMB()
	}
	s.sample()
	peak := s.peak.Load()
	cur, _ := residentBytes()
	s.peak.Store(cur)
	return float64(peak) / (1 << 20)
}

// close stops the sampler and waits for its goroutine to exit.
func (s *rssSampler) close() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

func residentBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", raw)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// peakRSSMB reports the process's peak resident set in MB: VmHWM where
// /proc provides it, otherwise getrusage's ru_maxrss (KiB on Linux).
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// countValues derives the simulated-work per-layer metrics from the
// metric snapshots of one round's points (all rounds simulate the same
// points, so one round describes them all). ops is the round's simulated
// operation count.
func countValues(snaps []map[string]float64, ops float64, into map[string]float64) {
	sum := func(name string) float64 {
		var s float64
		for _, m := range snaps {
			s += m[name]
		}
		return s
	}
	var msgs, p99 float64
	for _, m := range snaps {
		for k, v := range m {
			if strings.HasPrefix(k, "msgs_") {
				msgs += v
			}
		}
		p99 += m["miss_latency_p99_ns"]
	}
	misses := sum("misses")
	into["sim.events_executed"] = sum("events_executed")
	into["sim.events_scheduled"] = sum("events_scheduled")
	if ops > 0 {
		into["sim.events_per_op"] = sum("events_executed") / ops
	}
	into["interconnect.msgs"] = msgs
	into["interconnect.bytes_total"] = sum("bytes_total")
	if misses > 0 {
		into["interconnect.msgs_per_miss"] = msgs / misses
	}
	into["machine.accesses"] = sum("accesses")
	into["machine.l2_hits"] = sum("l2_hits")
	into["machine.misses"] = misses
	into["machine.writebacks"] = sum("writebacks")
	if len(snaps) > 0 {
		into["machine.miss_latency_p99_ns"] = p99 / float64(len(snaps))
	}
	into["core.reissues"] = sum("reissues")
	into["core.persistent_activations"] = sum("persistent_activations")
	into["core.token_transfers"] = sum("token_transfers")
	into["directory.home_requests"] = sum("dir_home_requests")
	into["dir2.authority_recalls"] = sum("dir2_authority_recalls")
	into["hammer.home_requests"] = sum("hammer_home_requests")
	into["snooping.broadcasts"] = sum("snoop_broadcasts")
}

// modelMetrics are the paper's Fig. 4/5 and Table 2 quantities, computed
// from paper16's points; paperRanges are the source paper's published
// figures for them (paper figures, not error bounds — the model is
// unvalidated against real hardware).
var modelMetrics = []metricDef{
	{"model.tokenb_vs_snooping_runtime", "ratio", "lower"},
	{"model.directory_vs_tokenb_runtime", "ratio", "higher"},
	{"model.hammer_vs_tokenb_runtime", "ratio", "higher"},
	{"model.hammer_vs_tokenb_traffic", "ratio", "higher"},
	{"model.directory_vs_tokenb_traffic", "ratio", "lower"},
	{"model.tokenb_first_try_pct", "%", "higher"},
	{"model.tokenb_persistent_pct", "%", "lower"},
}

var paperRanges = map[string]string{
	"model.tokenb_vs_snooping_runtime":  "0.74-0.85",
	"model.directory_vs_tokenb_runtime": "1.17-1.54",
	"model.hammer_vs_tokenb_runtime":    "1.08-1.29",
	"model.hammer_vs_tokenb_traffic":    "1.79-1.90",
	"model.directory_vs_tokenb_traffic": "0.75-0.79",
	"model.tokenb_first_try_pct":        "~97",
}

// pointStat is one simulated point's identity and metric snapshot.
type pointStat struct {
	protocol, workload string
	m                  map[string]float64
}

// modelValues computes the model.* metrics: runtime (cycles per
// transaction) and traffic (bytes per miss) ratios per commercial
// workload, averaged over the workloads that have both protocols, and
// TokenB's first-try and persistent-request percentages over all its
// misses. Each protocol runs on its default fabric (TokenB, Directory
// and Hammer on the torus, Snooping on the tree), as in the paper.
func modelValues(points []pointStat, into map[string]float64) {
	byWL := map[string]map[string]map[string]float64{}
	var misses, first, persistent float64
	for _, p := range points {
		if byWL[p.workload] == nil {
			byWL[p.workload] = map[string]map[string]float64{}
		}
		byWL[p.workload][p.protocol] = p.m
		if p.protocol == "tokenb" {
			misses += p.m["misses"]
			first += p.m["misses_not_reissued"]
			persistent += p.m["misses_persistent"]
		}
	}
	ratio := func(name, num, den, metric string) {
		var s float64
		var n int
		for _, protos := range byWL {
			a, b := protos[num], protos[den]
			if a == nil || b == nil || b[metric] == 0 {
				continue
			}
			s += a[metric] / b[metric]
			n++
		}
		if n > 0 {
			into[name] = s / float64(n)
		}
	}
	ratio("model.tokenb_vs_snooping_runtime", "tokenb", "snooping", "cycles_per_txn")
	ratio("model.directory_vs_tokenb_runtime", "directory", "tokenb", "cycles_per_txn")
	ratio("model.hammer_vs_tokenb_runtime", "hammer", "tokenb", "cycles_per_txn")
	ratio("model.hammer_vs_tokenb_traffic", "hammer", "tokenb", "bytes_per_miss")
	ratio("model.directory_vs_tokenb_traffic", "directory", "tokenb", "bytes_per_miss")
	if misses > 0 {
		into["model.tokenb_first_try_pct"] = 100 * first / misses
		into["model.tokenb_persistent_pct"] = 100 * persistent / misses
	}
}

// modelNotes lists the model metrics next to the paper's figures.
func modelNotes(o *outcome) {
	for _, d := range modelMetrics {
		name := d.name
		v, ok := o.values[name]
		if !ok {
			continue
		}
		paper := paperRanges[name]
		if paper == "" {
			paper = "not published"
		}
		o.note("%s %.4g (paper figure %s; unvalidated model)", name, v, paper)
	}
}

func fmtDur(d time.Duration) string { return fmt.Sprintf("%.4fs", d.Seconds()) }
