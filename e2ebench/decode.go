package main

import (
	"fmt"
	"time"

	"longexposure/internal/data"
	"longexposure/internal/infer"
	"longexposure/internal/jobs"
	"longexposure/internal/nn"
	"longexposure/internal/predictor"
	"longexposure/internal/registry"
	"longexposure/internal/tensor"
)

// genRequest is one generated generation request.
type genRequest struct {
	prompt    []int
	maxTokens int
	auto      bool // decode.sparsity.mode=auto; otherwise the dense default
	adapter   string
}

// genRequests draws n requests from seed: prompts of promptMin..promptMax
// content tokens, max_tokens in tokMin..tokMax, adapters picked uniformly,
// and every other request in auto sparsity mode.
func genRequests(seed uint64, n, vocab, promptMin, promptMax, tokMin, tokMax int, adapters []string) []genRequest {
	rng := tensor.NewRNG(seed)
	out := make([]genRequest, n)
	for i := range out {
		p := make([]int, promptMin+rng.Intn(promptMax-promptMin+1))
		for j := range p {
			p[j] = data.TokBase + rng.Intn(vocab-data.TokBase)
		}
		out[i] = genRequest{
			prompt:    p,
			maxTokens: tokMin + rng.Intn(tokMax-tokMin+1),
			auto:      i%2 == 1,
			adapter:   adapters[rng.Intn(len(adapters))],
		}
	}
	return out
}

func (r genRequest) sparsity() nn.SparsityOptions {
	if r.auto {
		return nn.SparsityOptions{Mode: nn.SparsityAuto}
	}
	return nn.SparsityOptions{}
}

// referencer decodes requests in process, on a base rebuilt from the
// artifact's description, as the oracle served tokens must match: dense
// requests through GenerateCachedCfg with no planner, auto requests
// through a fresh sequence planner of its own ServingPlanner.
type referencer struct {
	base     *nn.Transformer
	planner  *predictor.ServingPlanner
	adapters map[string]*nn.DecodeAdapter
	memo     map[int][]int
}

func newReferencer(reg *registry.Store, ids []string) (*referencer, error) {
	r := &referencer{adapters: map[string]*nn.DecodeAdapter{}, memo: map[int][]int{}}
	for _, id := range ids {
		man, params, err := reg.Load(id)
		if err != nil {
			return nil, err
		}
		if r.base == nil {
			if r.base, err = jobs.BuildBase(man.Base); err != nil {
				return nil, err
			}
			r.planner = predictor.NewServingPlanner(r.base, nil, predictor.ServingConfig{})
		}
		if r.adapters[id], err = infer.Compile(man.Method, man.Rank, man.Alpha, r.base.Cfg, params); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tokens returns the reference continuation of req; dense forces the
// dense decode whatever the request's mode.
func (r *referencer) tokens(req genRequest, dense bool) ([]int, error) {
	sess := nn.DecodeSession{Adapter: r.adapters[req.adapter], WS: tensor.NewArena()}
	if sess.Adapter == nil {
		return nil, fmt.Errorf("no reference adapter %q", req.adapter)
	}
	if req.auto && !dense {
		p, err := r.planner.NewSequencePlanner(req.sparsity())
		if err != nil {
			return nil, err
		}
		sess.Planner = p
	}
	return r.base.GenerateCachedCfg(req.prompt, nn.GenerateConfig{MaxTokens: req.maxTokens}, sess), nil
}

// memoTokens is tokens for request i of a fixed pool, computed once.
func (r *referencer) memoTokens(i int, req genRequest) ([]int, error) {
	if t, ok := r.memo[i]; ok {
		return t, nil
	}
	t, err := r.tokens(req, false)
	if err == nil {
		r.memo[i] = t
	}
	return t, err
}

// decodeTimes collects per-step timings of reference decodes.
type decodeTimes struct {
	plan, dense, sparse []float64 // µs
}

// timed decodes req step by step, timing each planner call and each
// single-token DecodeStepCfg, and returns the emitted tokens. Steps of
// auto requests that the planner leaves dense count as neither dense nor
// sparse samples.
func (r *referencer) timed(req genRequest, dt *decodeTimes) ([]int, error) {
	ad := r.adapters[req.adapter]
	cache := r.base.NewKVCache()
	ws := tensor.NewArena()
	var planner nn.DecodePlanner
	if req.auto {
		var err error
		if planner, err = r.planner.NewSequencePlanner(req.sparsity()); err != nil {
			return nil, err
		}
		planner.BeginSequence(req.prompt, ad)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var out []int
	feed := req.prompt
	var next [1]int
	for t := 0; t < req.maxTokens && ad.PromptLen()+len(req.prompt)+t < r.base.Cfg.MaxSeq; t++ {
		var plan *nn.DecodePlan
		if planner != nil && t > 0 {
			c := time.Now()
			plan = planner.PlanStep(feed[0], cache.Len, ws)
			dt.plan = append(dt.plan, us(time.Since(c)))
		}
		c := time.Now()
		logits := r.base.DecodeStepCfg(cache, feed, nn.DecodeStepConfig{Adapter: ad, Plan: plan, WS: ws})
		d := time.Since(c)
		switch {
		case t == 0:
		case plan != nil:
			dt.sparse = append(dt.sparse, us(d))
		case !req.auto:
			dt.dense = append(dt.dense, us(d))
		}
		next[0] = nn.SampleToken(logits.Row(0), 0, nil)
		ws.Release()
		out = append(out, next[0])
		feed = next[:]
	}
	return out, nil
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// matchShare counts positions where got equals want.
func matchShare(got, want []int) (match, total int) {
	for i, t := range got {
		if i < len(want) && want[i] == t {
			match++
		}
	}
	return match, len(got)
}
