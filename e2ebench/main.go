// Command e2ebench is the repository benchmark: three seeded workloads over
// the three surfaces users touch — the fine-tuning library, the job
// service and the KV-cached generation gateway — measured end to end, with
// a separate traced run that breaks the time down per layer by timing
// calls into each module from outside it. Every workload reports the same
// metrics: each end-to-end metric is defined on every workload, and a
// traced run fills in the layers its workload does not exercise with short
// probes of the other workloads. See README.md.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload finetune_long --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full report with the environment fingerprint and sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is one run's configuration.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// tiny selects test-size models and sample floors so every workload
	// finishes in about a second.
	tiny bool
	// probe selects the short traced run that supplies another workload's
	// per-layer metrics: one set-up and small sample floors.
	probe bool
	// corrupt perturbs one reference output before comparison. Tests use
	// it to prove the correctness check fails when outputs disagree.
	corrupt bool
	// workDir holds temporary registries; it must exist.
	workDir string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, succeeded, failed int
	// failures describes each failed operation (capped).
	failures []string
	// metrics holds the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run).
	metrics map[string]metric
	// samples counts the observations behind each timing metric.
	samples map[string]int
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// ok records one operation that passed its correctness check.
func (o *outcome) ok() { o.attempted++; o.succeeded++ }

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check records one operation that passes when cond holds.
func (o *outcome) check(cond bool, format string, args ...any) {
	if cond {
		o.ok()
	} else {
		o.fail(format, args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"finetune_long": runFinetuneLong,
	"finetune_jobs": runFinetuneJobs,
	"serve_mixed":   runServeMixed,
}

// probeSeconds is the measured duration of each probe in a traced run.
const probeSeconds = 2

// runWorkload runs the named workload. A traced run then probes every other
// workload and takes from each probe the per-layer metrics the workload
// itself did not produce, so every traced run reports every layer; the
// probes' operations count as the run's own.
func runWorkload(name string, o options) (*outcome, error) {
	out, err := workloads[name](o)
	if err != nil || !o.trace {
		return out, err
	}
	others := make([]string, 0, len(workloads))
	for n := range workloads {
		if n != name {
			others = append(others, n)
		}
	}
	sort.Strings(others)
	for _, n := range others {
		po := o
		po.probe, po.seconds = true, probeSeconds
		p, err := workloads[n](po)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", n, err)
		}
		for m, v := range p.metrics {
			if _, ok := out.metrics[m]; !ok {
				out.metrics[m] = v
			}
		}
		for k, v := range p.samples {
			out.samples["probe."+n+"."+k] = v
		}
		out.attempted += p.attempted
		out.succeeded += p.succeeded
		out.failed += p.failed
		for _, f := range p.failures {
			if len(out.failures) < 20 {
				out.failures = append(out.failures, "probe "+n+": "+f)
			}
		}
	}
	return out, nil
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record printed before the result line.
type report struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Env         fingerprint       `json:"env"`
	Attempted   int               `json:"attempted"`
	Succeeded   int               `json:"succeeded"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Samples     map[string]int    `json:"samples"`
	Metrics     map[string]metric `json:"metrics"`
	WallSeconds float64           `json:"wall_seconds"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: finetune_long, finetune_jobs or serve_mixed")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured duration in seconds")
		traced   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	)
	flag.Parse()
	if _, found := workloads[*workload]; !found {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (have %v)", *workload, names)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	work, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fatalf("creating work directory: %v", err)
	}
	defer os.RemoveAll(work)

	start := time.Now()
	out, err := runWorkload(*workload, options{seed: *seed, seconds: *seconds, trace: *traced == 1, workDir: work})
	if err != nil {
		os.RemoveAll(work)
		fatalf("%s: %v", *workload, err)
	}
	rep := report{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Env:       environment(),
		Attempted: out.attempted, Succeeded: out.succeeded, Failed: out.failed,
		Failures: out.failures, Samples: out.samples, Metrics: out.metrics,
		WallSeconds: time.Since(start).Seconds(),
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			os.RemoveAll(work)
			fatalf("%s: metric %s is %v", *workload, name, m.Value)
		}
	}
	printJSON(map[string]any{"report": rep})
	printJSON(result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
}

// buildDir is the scratch directory inside the checkout that run.sh also
// builds into; temporary registries live under it so the benchmark writes
// nowhere else.
func buildDir() string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("creating %s: %v", dir, err)
	}
	return dir
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}
