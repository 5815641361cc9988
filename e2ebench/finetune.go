package main

import (
	"math"
	"time"

	"longexposure/internal/core"
	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
	"longexposure/internal/train"
)

// checkpointSeed fixes the pre-trained backbone every fine-tuning run
// starts from; the workload seed varies only the data, as when one
// checkpoint is fine-tuned on different corpora.
const checkpointSeed = 2024

// taskSeed fixes the fine-tuning task (the E2E corpus's slot
// verbalization table); the workload seed draws the examples.
const taskSeed = 99

// pplMargin is the quality guard: after evalAt steps the Long Exposure
// model's held-out perplexity (evaluated dense) may exceed the dense-PEFT
// model's by at most this share.
const pplMargin = 0.05

// unaccountedTolerance bounds the share of the Long Exposure forward and
// predict phases that the traced sublayer brackets and predictor calls
// leave unexplained (embedding lookup and the first LayerNorm).
const unaccountedTolerance = 0.10

type finetuneScale struct {
	spec                model.Spec
	batch, seq, blk     int
	calib, predEpochs   int
	trainBatches, evalN int
	evalAt, minSteps    int
	recallEvery, setupN int
	maxWall             time.Duration
}

func finetuneSizes(tiny bool) finetuneScale {
	if tiny {
		return finetuneScale{spec: model.SimSmall(nn.ActReLU), batch: 2, seq: 32, blk: 4,
			calib: 1, predEpochs: 2, trainBatches: 4, evalN: 1,
			evalAt: 3, minSteps: 4, recallEvery: 2, setupN: 1, maxWall: 30 * time.Second}
	}
	return finetuneScale{spec: model.Sim(model.OPT1p3B()), batch: 2, seq: 160, blk: 16,
		calib: 2, predEpochs: 20, trainBatches: 32, evalN: 16,
		evalAt: 48, minSteps: 100, recallEvery: 8, setupN: 3, maxWall: 120 * time.Second}
}

// probed shrinks a scale to a probe's: one set-up, the quality check after
// 8 steps, 12 steps in all and an oracle comparison every other traced
// step.
func (sc finetuneScale) probed() finetuneScale {
	sc.setupN = 1
	sc.evalAt = min(sc.evalAt, 8)
	sc.minSteps = min(sc.minSteps, 12)
	sc.recallEvery = min(sc.recallEvery, 2)
	return sc
}

// finetuneInputs holds the seeded examples: training batches, the
// predictor calibration batches and held-out evaluation batches.
type finetuneInputs struct {
	train, calib, eval []data.Batch
}

func makeFinetuneInputs(sc finetuneScale, seed uint64) finetuneInputs {
	corpus := data.NewE2ECorpus(sc.spec.Config.Vocab, max(2, sc.seq/6), taskSeed)
	gen := func(n int, s uint64) []data.Batch {
		return data.Batches(corpus.Generate(n*sc.batch, s), sc.batch, sc.seq)
	}
	return finetuneInputs{
		train: gen(sc.trainBatches, seed+1),
		calib: gen(sc.calib, seed+2),
		eval:  gen(sc.evalN, seed+3),
	}
}

// finetuneSession is one set-up: the Long Exposure system with trained
// predictors, and the dense-PEFT baseline built from the same seed.
type finetuneSession struct {
	sys          *core.System
	dense        *train.Engine
	collect, fit time.Duration
}

func setupFinetune(sc finetuneScale, in finetuneInputs) *finetuneSession {
	cfg := core.Config{Spec: sc.spec, Method: peft.LoRA, Blk: sc.blk, Seed: checkpointSeed, Prime: true}
	s := &finetuneSession{sys: core.New(cfg), dense: core.NewBaseline(cfg)}
	calib := make([][][]int, len(in.calib))
	for i, b := range in.calib {
		calib[i] = b.Inputs
	}
	// core.System.PretrainPredictors, split so each half is timed.
	t0 := time.Now()
	samples := predictor.Collect(s.sys.Model, calib)
	t1 := time.Now()
	s.sys.Predictors.Train(samples, sc.spec.Config.Heads, predictor.TrainConfig{Epochs: sc.predEpochs, Seed: checkpointSeed})
	s.collect, s.fit = t1.Sub(t0), time.Since(t1)
	return s
}

// perplexity evaluates m densely on held-out batches: exp of the mean
// token cross-entropy.
func perplexity(m *nn.Transformer, batches []data.Batch) float64 {
	var sum float64
	for _, b := range batches {
		logits := m.Forward(b.Inputs, nil, nil)
		loss, _ := nn.CrossEntropy(logits, m.FlattenTargets(b.Targets))
		sum += loss
	}
	return math.Exp(sum / float64(len(batches)))
}

func runFinetuneLong(o options) (*outcome, error) {
	sc := finetuneSizes(o.tiny)
	if o.probe {
		sc = sc.probed()
	}
	in := makeFinetuneInputs(sc, o.seed)
	sess, setupS, err := medianSetup(sc.setupN, func() (*finetuneSession, error) {
		return setupFinetune(sc, in), nil
	}, func(*finetuneSession) {})
	if err != nil {
		return nil, err
	}
	le := sess.sys.Engine()
	dense := sess.dense
	layers := sc.spec.Config.Layers

	var leTimer, denseTimer *sublayerTimer
	if o.trace {
		leTimer = newSublayerTimer(le.Planner, layers)
		denseTimer = newSublayerTimer(nil, layers)
	}
	raw := le.Planner

	out := newOutcome()
	var (
		leStep, denseStep          []float64 // wall ms of every step
		lePhases, densePhases      []train.PhaseTimes
		tracedLE, untracedLE       []float64
		attnFwd, mlpFwd, attnPlan  []float64
		mlpPlan, attnFwdD, mlpFwdD []float64
		accounted, phase           time.Duration
		attnDens, mlpDens          []float64
		attnRecall, mlpRecall      []float64
		tokens                     int
		lePPL                      float64
	)
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		now := time.Now()
		done := now.After(deadline) && i >= sc.minSteps && i > sc.evalAt
		if done || now.Sub(start) > sc.maxWall {
			break
		}
		b := in.train[i%len(in.train)]
		// The traced run alternates instrumented and bare Long Exposure
		// steps so the instrumentation's own cost is measured in-run.
		instrumented := o.trace && i%2 == 0
		var oracle *planOracle
		if instrumented && (i/2)%sc.recallEvery == 0 {
			oracle = exposeOracle(sess.sys, b, layers)
		}
		if instrumented {
			le.Planner = leTimer
			dense.Planner = denseTimer
		} else {
			le.Planner = raw
			dense.Planner = nil
		}

		t0 := time.Now()
		if instrumented {
			leTimer.begin()
		}
		loss, pt := le.Step(b)
		leDur := time.Since(t0)
		if instrumented {
			leTimer.end(t0.Add(pt.Forward + pt.Predict))
		}
		t1 := time.Now()
		if instrumented {
			denseTimer.begin()
		}
		dloss, dpt := dense.Step(b)
		denseDur := time.Since(t1)
		if instrumented {
			denseTimer.end(t1.Add(dpt.Forward))
		}

		out.check(finite(loss), "long exposure step %d: loss %v", i, loss)
		out.check(finite(dloss), "dense step %d: loss %v", i, dloss)
		leStep = append(leStep, ms(leDur))
		denseStep = append(denseStep, ms(denseDur))
		lePhases = append(lePhases, pt)
		densePhases = append(densePhases, dpt)
		for _, row := range b.Inputs {
			tokens += len(row)
		}
		if o.trace {
			if instrumented {
				tracedLE = append(tracedLE, ms(leDur))
				attnFwd = append(attnFwd, ms(leTimer.attn))
				mlpFwd = append(mlpFwd, ms(leTimer.mlp))
				attnPlan = append(attnPlan, ms(leTimer.attnPlan))
				mlpPlan = append(mlpPlan, ms(leTimer.mlpPlan))
				attnFwdD = append(attnFwdD, ms(denseTimer.attn))
				mlpFwdD = append(mlpFwdD, ms(denseTimer.mlp))
				accounted += leTimer.attn + leTimer.mlp + leTimer.attnPlan + leTimer.mlpPlan
				phase += pt.Forward + pt.Predict
				a, m := leTimer.densities(sess.sys.Predictors)
				attnDens = append(attnDens, a)
				mlpDens = append(mlpDens, m)
				if oracle != nil {
					ar, mr := oracle.recall(leTimer)
					attnRecall = append(attnRecall, ar)
					mlpRecall = append(mlpRecall, mr)
				}
			} else {
				untracedLE = append(untracedLE, ms(leDur))
			}
		}
		if i+1 == sc.evalAt {
			lePPL = perplexity(le.Model, in.eval)
			densePPL := perplexity(dense.Model, in.eval)
			if o.corrupt {
				densePPL /= 10
			}
			out.check(finite(lePPL) && lePPL <= densePPL*(1+pplMargin),
				"eval ppl after %d steps: long exposure %.4f vs dense %.4f (margin %.0f%%)", sc.evalAt, lePPL, densePPL, pplMargin*100)
		}
	}
	peak := heap.peakMB()
	out.samples["steps"] = len(leStep)
	if !o.trace {
		var leTotal float64
		for _, v := range leStep {
			leTotal += v
		}
		// The operation is a Long Exposure step; its tokens are the
		// batch's training tokens.
		out.set("setup_s", "s", setupS)
		out.set("peak_heap_mb", "MB", peak)
		out.set("latency_ms_p50", "ms", median(leStep))
		out.set("latency_ms_p90", "ms", quantile(leStep, 0.9))
		out.set("tokens_per_s", "tokens/s", float64(tokens)/(leTotal/1000))
		return out, nil
	}

	phaseMs := func(ps []train.PhaseTimes, f func(train.PhaseTimes) time.Duration) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = ms(f(p))
		}
		return median(xs)
	}
	out.set("train.forward_ms", "ms", phaseMs(lePhases, func(p train.PhaseTimes) time.Duration { return p.Forward }))
	out.set("train.backward_ms", "ms", phaseMs(lePhases, func(p train.PhaseTimes) time.Duration { return p.Backward }))
	out.set("train.optim_ms", "ms", phaseMs(lePhases, func(p train.PhaseTimes) time.Duration { return p.Optim }))
	out.set("train.predict_ms", "ms", phaseMs(lePhases, func(p train.PhaseTimes) time.Duration { return p.Predict }))
	out.set("train.dense_forward_ms", "ms", phaseMs(densePhases, func(p train.PhaseTimes) time.Duration { return p.Forward }))
	out.set("train.dense_backward_ms", "ms", phaseMs(densePhases, func(p train.PhaseTimes) time.Duration { return p.Backward }))
	out.set("train.dense_step_ms", "ms", median(denseStep))
	out.set("train.le_speedup", "x", median(denseStep)/median(leStep))
	out.set("train.eval_ppl", "ppl", lePPL)
	out.set("nn.attn_fwd_ms", "ms", median(attnFwd))
	out.set("nn.mlp_fwd_ms", "ms", median(mlpFwd))
	out.set("nn.attn_fwd_dense_ms", "ms", median(attnFwdD))
	out.set("nn.mlp_fwd_dense_ms", "ms", median(mlpFwdD))
	out.set("predictor.attn_plan_ms", "ms", median(attnPlan))
	out.set("predictor.mlp_plan_ms", "ms", median(mlpPlan))
	out.set("predictor.attn_density", "ratio", mean(attnDens))
	out.set("predictor.mlp_density", "ratio", mean(mlpDens))
	out.set("predictor.attn_recall", "ratio", mean(attnRecall))
	out.set("predictor.mlp_recall", "ratio", mean(mlpRecall))
	out.set("predictor.collect_s", "s", sess.collect.Seconds())
	out.set("predictor.fit_s", "s", sess.fit.Seconds())
	unaccounted := 1 - float64(accounted)/float64(phase)
	out.set("bench.fwd_unaccounted_share", "ratio", unaccounted)
	out.check(math.Abs(unaccounted) <= unaccountedTolerance,
		"self-check: sublayer brackets leave %.1f%% of the forward+predict phases unaccounted (tolerance %.0f%%)", unaccounted*100, unaccountedTolerance*100)
	out.set("bench.trace_overhead_pct", "%", 100*(median(tracedLE)/median(untracedLE)-1))
	out.samples["traced_steps"] = len(tracedLE)
	out.samples["recall_steps"] = len(attnRecall)
	return out, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// sublayerTimer wraps the nn.Planner handed to train.Engine. Block.Forward
// calls PlanAttention just before attention and PlanMLP just before the
// MLP, so consecutive calls bracket each sublayer: the time from
// PlanAttention's return to PlanMLP's call is layer i's attention (plus
// its residual and LayerNorm), and from PlanMLP's return to the next
// layer's PlanAttention call its MLP. The last MLP bracket closes at the
// end of the forward phase, so it also holds the final LayerNorm, the LM
// head and the loss. A nil inner planner returns nil plans — the literal
// dense path.
type sublayerTimer struct {
	inner nn.Planner
	open  time.Time

	attn, mlp, attnPlan, mlpPlan time.Duration
	layouts                      [][]*sparse.Layout
	blocks                       [][]int
}

func newSublayerTimer(inner nn.Planner, layers int) *sublayerTimer {
	return &sublayerTimer{inner: inner, layouts: make([][]*sparse.Layout, layers), blocks: make([][]int, layers)}
}

func (t *sublayerTimer) Layer(i int) nn.LayerPlanner { return timedLayer{t, i} }

func (t *sublayerTimer) begin() {
	t.open = time.Time{}
	t.attn, t.mlp, t.attnPlan, t.mlpPlan = 0, 0, 0, 0
	for i := range t.layouts {
		t.layouts[i], t.blocks[i] = t.layouts[i][:0], t.blocks[i][:0]
	}
}

// end closes the last MLP bracket at the end of the forward phase.
func (t *sublayerTimer) end(forwardEnd time.Time) {
	if !t.open.IsZero() {
		t.mlp += forwardEnd.Sub(t.open)
	}
}

// densities reports the step's executed share of attention blocks (mean
// over layers and heads) and of MLP neuron blocks (mean over layers).
func (t *sublayerTimer) densities(set *predictor.Set) (attn, mlp float64) {
	var an, mn int
	for li := range t.layouts {
		for _, l := range t.layouts[li] {
			attn += l.Density()
			an++
		}
		if mp := set.Layers[li].MLP; mp != nil && len(t.blocks[li]) > 0 {
			mlp += float64(len(t.blocks[li])) / float64(mp.NBlk)
			mn++
		}
	}
	if an > 0 {
		attn /= float64(an)
	}
	if mn > 0 {
		mlp /= float64(mn)
	}
	return attn, mlp
}

type timedLayer struct {
	t  *sublayerTimer
	li int
}

func (l timedLayer) inner() nn.LayerPlanner {
	if l.t.inner == nil {
		return nil
	}
	return l.t.inner.Layer(l.li)
}

func (l timedLayer) PlanAttention(x *tensor.Tensor, batch, seq int) ([]*sparse.Layout, int) {
	t := l.t
	c := time.Now()
	if !t.open.IsZero() {
		t.mlp += c.Sub(t.open)
	}
	var layouts []*sparse.Layout
	blk := 0
	if in := l.inner(); in != nil {
		layouts, blk = in.PlanAttention(x, batch, seq)
	}
	r := time.Now()
	t.attnPlan += r.Sub(c)
	t.open = r
	t.layouts[l.li] = append(t.layouts[l.li], layouts...)
	return layouts, blk
}

func (l timedLayer) PlanMLP(x *tensor.Tensor, batch, seq int) ([]int, int) {
	t := l.t
	c := time.Now()
	t.attn += c.Sub(t.open)
	var blocks []int
	blk := 0
	if in := l.inner(); in != nil {
		blocks, blk = in.PlanMLP(x, batch, seq)
	}
	r := time.Now()
	t.mlpPlan += r.Sub(c)
	t.open = r
	t.blocks[l.li] = append(t.blocks[l.li], blocks...)
	return blocks, blk
}

// planOracle holds the exposer's plans for one batch, derived from the
// dense activations of the model as it stands before the step.
type planOracle struct {
	attn [][]*sparse.Layout // [layer][head]
	mlp  [][]int            // [layer]
}

func exposeOracle(sys *core.System, b data.Batch, layers int) *planOracle {
	samples := predictor.Collect(sys.Model, [][][]int{b.Inputs})
	sm := samples[0]
	o := &planOracle{attn: make([][]*sparse.Layout, layers), mlp: make([][]int, layers)}
	heads := sys.Model.Cfg.Heads
	for li, ls := range sm.Layers {
		_, o.attn[li] = sys.Exposer.ExposeAttention(ls.Probs, sm.Batch, heads)
		if ls.Hidden != nil {
			o.mlp[li] = sys.Exposer.FilterNeuronBlocks(ls.Hidden)
		}
	}
	return o
}

// recall compares the step's predicted plans against the oracle: the
// share of needed attention blocks the predicted layouts cover (mean over
// layers and heads) and of needed MLP neuron blocks the predicted lists
// contain (mean over layers).
func (o *planOracle) recall(t *sublayerTimer) (attn, mlp float64) {
	var an, mn int
	for li := range o.attn {
		if got := t.layouts[li]; len(got) == len(o.attn[li]) {
			for h, need := range o.attn[li] {
				attn += predictor.MaskRecall(got[h], need)
				an++
			}
		}
		if need := o.mlp[li]; need != nil && len(t.blocks[li]) > 0 {
			have := map[int]bool{}
			for _, b := range t.blocks[li] {
				have[b] = true
			}
			hit := 0
			for _, b := range need {
				if have[b] {
					hit++
				}
			}
			mlp += float64(hit) / float64(len(need))
			mn++
		}
	}
	if an > 0 {
		attn /= float64(an)
	}
	if mn > 0 {
		mlp /= float64(mn)
	}
	return attn, mlp
}
