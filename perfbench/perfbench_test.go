package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark reports %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark reports %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// tinyRun runs one workload at self-test sizes and returns the parsed
// result line and the summary lines before it.
func tinyRun(t *testing.T, opts options) (resultLine, []string) {
	t.Helper()
	opts.tiny = true
	opts.seconds = 0.01
	opts.workdir = t.TempDir()
	if opts.seed == 0 {
		opts.seed = 1
	}
	o, err := runWorkload(opts)
	if err != nil {
		t.Fatalf("%s: %v", opts.workload, err)
	}
	var out bytes.Buffer
	if err := report(&out, opts, o); err != nil {
		t.Fatalf("%s: %v", opts.workload, err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", opts.workload, err, out.String())
	}
	return res, lines[:len(lines)-1]
}

func summaryValue(lines []string, key string) string {
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, key+" "); ok {
			return rest
		}
	}
	return ""
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, lines := tinyRun(t, options{workload: wl, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl, traced, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			if traced && wl != "sweep" && res.Metrics["trace.spans"].Value != res.Metrics["machine.misses"].Value {
				t.Errorf("%s: trace.spans %v != machine.misses %v", wl, res.Metrics["trace.spans"].Value, res.Metrics["machine.misses"].Value)
			}
			if d := summaryValue(lines, "sim_digest"); len(d) != 64 {
				t.Errorf("%s trace=%v: sim_digest %q", wl, traced, d)
			}
			if summaryValue(lines, "host") == "" || !strings.HasPrefix(summaryValue(lines, "error_rate"), "0 ") {
				t.Errorf("%s trace=%v: summary lacks host or a zero error_rate:\n%s", wl, traced, strings.Join(lines, "\n"))
			}
		}
	}
}

func TestSimDigestFollowsSeed(t *testing.T) {
	digest := func(seed uint64) string {
		_, lines := tinyRun(t, options{workload: "paper16", seed: seed})
		return summaryValue(lines, "sim_digest")
	}
	a, b, c := digest(3), digest(3), digest(4)
	if a != b {
		t.Errorf("same seed, different sim_digest: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 share sim_digest %s", a)
	}
}

func TestCorruptStoreEntryFailsResumeCheck(t *testing.T) {
	res, lines := tinyRun(t, options{workload: "sweep", fault: faultCorruptStore})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted store entry went unnoticed: correct=%v failed=%d\n%s", res.Correct, res.Failed, strings.Join(lines, "\n"))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "rows differ from the compute pass") {
		t.Errorf("failure not attributed to the resume check:\n%s", strings.Join(lines, "\n"))
	}
}

func TestFailingPointIsCounted(t *testing.T) {
	res, lines := tinyRun(t, options{workload: "paper16", fault: faultBadPoint})
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("want some but not all points failed: correct=%v attempted=%d failed=%d\n%s",
			res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tokencoherence/internal/sim.(*Kernel).Run":                                 "sim",
		"tokencoherence/internal/interconnect.(*Network).Send.func1":                "interconnect",
		"tokencoherence/internal/harness.Run":                                       "other",
		"tokencoherence/internal/registry.(*table[go.shape.struct { x int }]).list": "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"encoding/json.(*decodeState).object":     "other",
		"":                                        "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
