package main

import (
	"fmt"
	"runtime"
	"strings"

	"heterodc/internal/kernel"
	"heterodc/internal/member"
)

// workload is one benchmark workload with its inputs already generated.
type workload interface {
	// setup performs one complete set-up and returns the instance to run.
	setup(tr *tracer) (instance, setupInfo, error)
	// workers is how many engine workers run the simulation.
	workers() int
}

// instance is one set-up workload, ready to run once. run times each of
// its calls into the layers that do the run's work with pc; release lets
// the run's simulation be collected.
type instance interface {
	run(tr *tracer, pc *partClock) outcome
	release()
}

// detachEngine lets a finished cluster be collected. The parallel engine's
// workers hold the cluster, and the cluster holds the engine, so the
// finalizer meant to stop the workers never runs: without this, every
// parallel cluster stays in memory with its workers for the life of the
// process (about 34 MiB and two goroutines per swim-256 run), and each run
// would start from a larger heap than the one before.
func detachEngine(cl *kernel.Cluster) { cl.SetEngine(nil) }

// setupInfo reports the toolchain work done during a set-up.
type setupInfo struct {
	builds   int
	buildSec float64
}

// outcome is what one run of a workload reports.
type outcome struct {
	// digest covers every engine-reproducible simulated observable; it
	// must repeat exactly for a seed.
	digest    string
	attempted int
	failed    int
	problems  []string
	// sim holds the workload's simulated-time metrics.
	sim map[string]float64
	// instrs is the guest instructions retired on every node (0 where the
	// workload's clusters are not visible to the benchmark).
	instrs uint64
	// workScale scales the run's host time to the workload's nominal
	// simulated work (0: the run's work is nominal, no scaling).
	workScale float64
	// drivesEngine: the timed calls drive a simulation engine
	// (RunOpenLoop, Cluster.Run), rather than a layer that runs its own.
	drivesEngine bool
	// layer holds the per-layer counters read at the run's boundaries.
	layer map[string]float64
}

func (o *outcome) fail(n int, problem string) {
	o.failed += n
	o.problems = append(o.problems, problem)
}

// parWorkers mirrors the parallel engine's pool size: GOMAXPROCS clamped
// by the CPU count and the node count.
func parWorkers(nodes int) int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	if n > nodes {
		n = nodes
	}
	return n
}

// clusterCounters are the machine, kernel, DSM and interconnect counters
// of one cluster.
type clusterCounters struct {
	instrs                uint64
	cycles                int64
	quanta                uint64
	iAcc, iMiss           uint64
	dAcc, dMiss           uint64
	migrations, aborted   uint64
	pagesIn, pagesOut     uint64
	messages, bytes, drop uint64
	retries               uint64
}

func readCluster(cl *kernel.Cluster) clusterCounters {
	c := clusterCounters{quanta: cl.Quanta()}
	for _, k := range cl.Kernels {
		c.instrs += k.InstrsRetired
		c.cycles += k.CyclesRetired
		ia, im, da, dm := k.CacheStats()
		c.iAcc += ia
		c.iMiss += im
		c.dAcc += da
		c.dMiss += dm
		c.migrations += k.MigrationsIn
		c.aborted += k.MigrationsAborted
		c.pagesIn += k.PagesIn
		c.pagesOut += k.PagesOut
	}
	st := cl.IC.Stats()
	c.messages, c.bytes, c.drop, c.retries = st.Messages, st.Bytes, st.Dropped, st.Retries
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c clusterCounters) addTo(m map[string]float64) {
	m["machine.instrs"] = float64(c.instrs)
	m["machine.ipc"] = ratio(float64(c.instrs), float64(c.cycles))
	m["cache.l1i_miss_ratio"] = ratio(float64(c.iMiss), float64(c.iAcc))
	m["cache.l1d_miss_ratio"] = ratio(float64(c.dMiss), float64(c.dAcc))
	m["kernel.quanta"] = float64(c.quanta)
	m["kernel.migrations"] = float64(c.migrations)
	m["kernel.migration_abort_ratio"] = ratio(float64(c.aborted), float64(c.migrations+c.aborted))
	m["dsm.pages_in"] = float64(c.pagesIn)
	m["dsm.pages_out"] = float64(c.pagesOut)
	m["msg.messages"] = float64(c.messages)
	m["msg.bytes"] = float64(c.bytes)
	m["msg.dropped"] = float64(c.drop)
	m["msg.retry_ratio"] = ratio(float64(c.retries), float64(c.messages))
}

func addMember(m map[string]float64, st member.Stats) {
	m["member.probes"] = float64(st.Probes)
	m["member.probe_timeouts"] = float64(st.ProbeTimeouts)
	m["member.indirect_probes"] = float64(st.IndirectProbes)
	m["member.gossip_updates"] = float64(st.GossipUpdates)
	m["member.suspicions"] = float64(st.Suspicions)
	m["member.false_suspicions"] = float64(st.FalseSuspicions)
}

// memberDigest renders the detector's counters and death records.
func memberDigest(svc *member.Service) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", svc.Stats())
	for _, d := range svc.Deaths() {
		fmt.Fprintf(&b, ";dead:%d@%d:%x:by%d", d.Node, d.Inc, d.At, d.Observer)
	}
	return b.String()
}
