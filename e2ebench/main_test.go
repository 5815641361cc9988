package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) *outcome {
	t.Helper()
	out, err := runWorkload(workload, options{seed: 1, seconds: 0.2, trace: trace, tiny: true, corrupt: corrupt, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	return out
}

// TestSmokeEmitsDeclaredMetrics runs every workload at test size, traced
// and untraced, and checks each run passes its correctness checks and
// emits exactly the declared metrics — every end-to-end metric untraced,
// every per-layer metric traced — with their declared units.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, trace := range []bool{false, true} {
		want := endToEnd
		if trace {
			want = perLayer
		}
		for name := range workloads {
			out := tinyRun(t, name, trace, false)
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s (trace=%v): %d of %d operations failed: %v", name, trace, out.failed, out.attempted, out.failures)
			}
			for m, v := range out.metrics {
				unit, ok := want[m]
				switch {
				case !ok:
					t.Errorf("%s (trace=%v) emits undeclared metric %s", name, trace, m)
				case v.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m, v.Unit, unit)
				}
			}
			for m := range want {
				if _, ok := out.metrics[m]; !ok {
					t.Errorf("%s (trace=%v) does not emit declared metric %s", name, trace, m)
				}
			}
		}
	}
}

// TestSeedsChangeInputs checks each workload's inputs are a function of
// the seed: equal seeds give equal inputs, different seeds different ones.
func TestSeedsChangeInputs(t *testing.T) {
	sc := finetuneSizes(true)
	if a, b := makeFinetuneInputs(sc, 1), makeFinetuneInputs(sc, 1); !reflect.DeepEqual(a, b) {
		t.Error("finetune inputs differ for one seed")
	}
	if a, b := makeFinetuneInputs(sc, 1), makeFinetuneInputs(sc, 2); reflect.DeepEqual(a.train, b.train) || reflect.DeepEqual(a.eval, b.eval) {
		t.Error("finetune inputs equal across seeds")
	}

	js := jobsSizes(true)
	if jobSpec(js, 1, 0).Hash() == jobSpec(js, 2, 0).Hash() {
		t.Error("job specs equal across seeds")
	}
	if jobSpec(js, 1, 0).Hash() == jobSpec(js, 1, 1).Hash() {
		t.Error("two jobs of one run share a spec, so the second would hit the result cache")
	}

	gen := func(seed uint64) []genRequest {
		return genRequests(seed, 16, 64, 4, 12, 4, 12, []string{"a", "b"})
	}
	if !reflect.DeepEqual(gen(1), gen(1)) {
		t.Error("generate requests differ for one seed")
	}
	if reflect.DeepEqual(gen(1), gen(2)) {
		t.Error("generate requests equal across seeds")
	}
}

// TestCorruptedReferenceFails perturbs each workload's reference and
// checks the run reports a failed operation, so no correctness check can
// pass vacuously.
func TestCorruptedReferenceFails(t *testing.T) {
	for name := range workloads {
		out := tinyRun(t, name, false, true)
		if out.failed == 0 {
			t.Errorf("%s: corrupted reference reported no failure (%d operations)", name, out.attempted)
		}
	}
}

// TestResultLineKeys pins the result object's keys.
func TestResultLineKeys(t *testing.T) {
	b, err := json.Marshal(result{Attempted: 1, Metrics: map[string]metric{"setup_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
}
