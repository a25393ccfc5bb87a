package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"heterodc/internal/npb"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
)

// runOnce makes one set-up and one run of a workload.
func runOnce(t *testing.T, w workload) outcome {
	t.Helper()
	inst, _, err := w.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := inst.run(nil, nil)
	inst.release()
	if out.failed != 0 || len(out.problems) != 0 {
		t.Fatalf("run failed %d of %d: %v", out.failed, out.attempted, out.problems)
	}
	return out
}

// TestEnginesAgree runs fleet and swim at reduced size on the sequential
// and the parallel engine: the simulated digests and sim_* metrics must be
// identical, so the sim_* metrics measured on the parallel engine do not
// depend on it. Two observables are left out on purpose. sim_energy_j: the
// power meter integrates over the engine's own interval boundaries, so the
// joules agree only up to float association (an 8-node, 40-job stream gave
// 33.22 J seq and 33.38 J par). kernel.quanta: the engines schedule quanta
// differently and differed by one on swim-256.
func TestEnginesAgree(t *testing.T) {
	fc := fleetConfig{nodes: 4, mix: []mixEntry{{npb.EP, npb.ClassS, 3}, {npb.IS, npb.ClassS, 3},
		{npb.CG, npb.ClassS, 3}, {npb.Verus, npb.ClassS, 3}, {npb.MG, npb.ClassS, 3}}}
	sc := swimConfig{nodes: 32, racks: 4, rounds: 120, chunkRounds: 40}
	for _, tc := range []struct {
		name string
		make func(engine string) (workload, error)
	}{
		{"fleet", func(e string) (workload, error) { c := fc; c.engine = e; return newFleet(c, 3) }},
		{"swim", func(e string) (workload, error) { c := sc; c.engine = e; return newSwim(c, 7), nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs []outcome
			for _, e := range []string{"seq", "par"} {
				w, err := tc.make(e)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, runOnce(t, w))
			}
			if outs[0].digest != outs[1].digest {
				t.Errorf("digests differ:\nseq %s\npar %s", outs[0].digest, outs[1].digest)
			}
			for k, v := range outs[0].sim {
				if k != "sim_energy_j" && outs[1].sim[k] != v {
					t.Errorf("%s: seq %v, par %v", k, v, outs[1].sim[k])
				}
			}
		})
	}
}

// TestDrawProgramsStratified checks the oracle draw is seed-stable, takes
// one program from each stratum and varies with the seed.
func TestDrawProgramsStratified(t *testing.T) {
	a, err := drawPrograms(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := drawPrograms(1, 10)
	c, _ := drawPrograms(2, 10)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different programs: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("seeds 1 and 2 drew the same programs %v", a)
	}
	stratum := map[int64]int{}
	for i, e := range oracleCatalogue {
		stratum[e.seed] = i * 10 / len(oracleCatalogue)
	}
	seen := map[int]bool{}
	for _, s := range a {
		seen[stratum[s]] = true
	}
	if len(seen) != 10 {
		t.Fatalf("draw %v covers %d strata, want 10", a, len(seen))
	}
	if _, err := drawPrograms(1, len(oracleCatalogue)+1); err == nil {
		t.Fatal("oversized draw accepted")
	}
}

// TestFleetStreamStratified checks every seed offers the same job mix, up
// to which thread count gets a benchmark's remainder jobs.
func TestFleetStreamStratified(t *testing.T) {
	count := func(seed int64) map[string]int {
		jobs, err := fleetJobs(fleetDefault, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, j := range jobs {
			m[keyOf(j).name()]++
		}
		return m
	}
	a, b := count(1), count(1009)
	for _, m := range []map[string]int{a, b} {
		for _, e := range fleetDefault.mix {
			lo := e.n / len(fleetThreads)
			for _, th := range fleetThreads {
				k := imageKey{e.bench, e.class, th}
				if n := m[k.name()]; n < lo || n > lo+1 {
					t.Errorf("%d jobs of %s, want %d or %d", n, k.name(), lo, lo+1)
				}
			}
		}
	}

}

// TestLayerOf checks the self-time attribution rules.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"heterodc/internal/cache.(*Cache).Access", "heterodc/internal/machine.(*Core).Step"}, "cache"},
		{[]string{"runtime.mapaccess2_fast64", "heterodc/internal/mem.(*Memory).Load64"}, "mem"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "heterodc/internal/xform.Transform"}, "go.gc_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc_alloc"},
		{[]string{"heterodc/internal/minic.parse"}, "toolchain"},
		{[]string{"heterodc/internal/power.(*Meter).advance"}, "sched"},
		{[]string{"heterodc/internal/fault.(*Plan).Drop", "heterodc/internal/msg.(*IC).Send"}, "msg"},
		{[]string{"heterodc/internal/sys.Number.String"}, "kernel"},
		{[]string{"heterodc/internal/exp.Fleet"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"main.main"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestEveryPackageReported checks every package under internal/ folds
// into a reported layer, so the reported self_frac values sum to 1.
func TestEveryPackageReported(t *testing.T) {
	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, l := range selfFracLayers {
		reported[l] = true
	}
	var samples []profSample
	for _, d := range dirs {
		if d.IsDir() {
			samples = append(samples, profSample{value: 1, frames: []string{internalPrefix + d.Name() + ".f"}})
		}
	}
	samples = append(samples,
		profSample{value: 1, frames: []string{"runtime.mallocgc"}},
		profSample{value: 1, frames: []string{"main.main"}})
	fracs, _ := foldSelfTime(samples)
	total := 0.0
	for l, f := range fracs {
		if !reported[l] {
			t.Errorf("self time folded into %q, which the benchmark does not report", l)
		}
		total += f
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("self_frac values sum to %v, want 1", total)
	}
}

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0
	for i := 0; i < 200_000_000; i++ {
		x ^= i * i
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skipf("no samples collected (x=%d)", x)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with value %d", s.value)
		}
		for _, f := range s.frames {
			if strings.HasSuffix(f, "TestParseProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no sample names the test function")
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json lists exactly the metrics
// the JSON line reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadInfo) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloadInfo))
	}
	for i, w := range workloadInfo {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s, want %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
