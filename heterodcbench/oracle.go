package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"heterodc/internal/fuzz"
)

// oraclePrograms is how many generated programs one run sweeps, one drawn
// from each of that many equal strata of the catalogue.
const oraclePrograms = 30

type oracle struct {
	progs []int64 // generator seeds, in sweep order
}

// drawPrograms picks one generator seed from each of n contiguous strata of
// the cost-sorted catalogue, then shuffles the sweep order. Every seed thus
// sweeps a cross-section of the generator's cost distribution and a run
// costs about the same whatever the seed.
func drawPrograms(seed int64, n int) ([]int64, error) {
	cat := oracleCatalogue
	if n < 1 || n > len(cat) {
		return nil, fmt.Errorf("oracle: %d programs requested from a catalogue of %d", n, len(cat))
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(cat)/n, (i+1)*len(cat)/n
		out = append(out, cat[lo+rng.Intn(hi-lo)].seed)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func newOracle(seed int64) (*oracle, error) {
	progs, err := drawPrograms(seed, oraclePrograms)
	if err != nil {
		return nil, err
	}
	return &oracle{progs: progs}, nil
}

// The oracle runs on fuzz's own two-node testbeds under the sequential
// engine.
func (o *oracle) workers() int { return 1 }

type oracleRun struct {
	o       *oracle
	sources []string
}

// setup generates every program and compiles it once, so a program the
// toolchain rejects is reported before the sweep; fuzz.RunSource compiles
// it again inside the run, as the CI sweep does.
func (o *oracle) setup(tr *tracer) (instance, setupInfo, error) {
	var info setupInfo
	src := make([]string, len(o.progs))
	for i, s := range o.progs {
		end := tr.begin("fuzz.BuildProg", map[string]any{"seed": s})
		p := fuzz.Generate(s)
		src[i] = fuzz.Render(p)
		t0 := time.Now()
		_, err := fuzz.BuildProg(p)
		info.buildSec += time.Since(t0).Seconds()
		info.builds++
		end(nil)
		if err != nil {
			return nil, info, fmt.Errorf("oracle: program %d: %w", s, err)
		}
	}
	return &oracleRun{o: o, sources: src}, info, nil
}

// release has nothing to do: fuzz.RunSource drops its clusters.
func (r *oracleRun) release() {}

func (r *oracleRun) run(tr *tracer, pc *partClock) outcome {
	out := outcome{attempted: len(r.sources), layer: map[string]float64{}}
	var b strings.Builder
	var points, migrations, images, runs float64
	for i, src := range r.sources {
		seed := r.o.progs[i]
		end := tr.begin("fuzz.RunSource", map[string]any{"seed": seed})
		pc.start()
		v, err := fuzz.RunSource(src, fuzz.OracleOptions{})
		pc.stop()
		if err != nil {
			end(map[string]any{"error": err.Error()})
			out.fail(1, fmt.Sprintf("program %d ungradable: %v", seed, err))
			fmt.Fprintf(&b, "p%d:error;", seed)
			continue
		}
		mig := 0
		fmt.Fprintf(&b, "p%d:pts%d:img%d", seed, v.Points, v.Images)
		for _, rr := range v.Runs {
			mig += rr.Migrations
			fmt.Fprintf(&b, ":%s=%s/%d", rr.Mode, rr.Digest(), rr.Migrations)
		}
		b.WriteByte(';')
		end(map[string]any{"runs": len(v.Runs), "points": v.Points, "images": v.Images,
			"migrations": mig, "diverged": v.Diverged})
		if v.Diverged {
			out.fail(1, fmt.Sprintf("program %d diverged: %s", seed, strings.Join(v.Diffs, "; ")))
		}
		points += float64(v.Points)
		migrations += float64(mig)
		images += float64(v.Images)
		runs += float64(len(v.Runs))
	}
	out.digest = b.String()
	out.sim = map[string]float64{}
	out.layer["fuzz.points"] = points
	out.layer["fuzz.migrations"] = migrations
	out.layer["fuzz.ckpt_images"] = images
	out.layer["fuzz.runs"] = runs
	return out
}
