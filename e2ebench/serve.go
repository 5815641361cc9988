package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"longexposure/internal/nn"
	"longexposure/internal/tensor"
	"longexposure/internal/trace"
)

type serveScale struct {
	jobs                 jobsScale
	promptMin, promptMax int
	tokMin, tokMax       int
	rate                 float64 // requests per second, open loop
	pool                 int     // distinct requests, cycled by arrival order
	clients, minRequests int
	setupN               int
	maxWall              time.Duration
}

// probed shrinks a scale to a probe's: one set-up and 16 requests.
func (sc serveScale) probed() serveScale {
	sc.jobs = sc.jobs.probed()
	sc.setupN = 1
	sc.minRequests = min(sc.minRequests, 16)
	return sc
}

// servingBaseSeed fixes the base model the setup jobs fine-tune; the
// workload seed varies only the requests.
const servingBaseSeed = 7

func serveSizes(tiny bool) serveScale {
	if tiny {
		return serveScale{jobs: jobsSizes(true), promptMin: 4, promptMax: 12, tokMin: 4, tokMax: 12,
			rate: 50, pool: 8, clients: 2, minRequests: 6, setupN: 1, maxWall: 30 * time.Second}
	}
	// Two back-to-back connections complete about 39 requests/s on 2 CPUs.
	// At half that, a third of requests queue for a connection and the
	// 90th TTFT percentile lands among them, where it swings by half with
	// each seed's arrivals. At 5/s (about 13%) about 3% queue, and still
	// under 7% on a machine half again as slow, so the percentile stays in
	// the service-time regime and repeats.
	return serveScale{jobs: jobsSizes(false), promptMin: 8, promptMax: 64, tokMin: 32, tokMax: 96,
		rate: 5, pool: 256, clients: 2, minRequests: 100, setupN: 5, maxWall: 100 * time.Second}
}

// servingSetup publishes the adapters the generation workloads serve: one
// fine-tuning job per method on a shared base, run through the job
// service.
func servingSetup(s *apiServer, sc jobsScale, methods []string) ([]string, error) {
	ids := make([]string, len(methods))
	errs := make([]error, len(methods))
	var wg sync.WaitGroup
	for i, m := range methods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := jobSpec(sc, 0, 0)
			spec.Finetune.Method = m
			spec.Finetune.Seed = servingBaseSeed
			rec := runJob(newClient(), s.url, spec)
			if errs[i] = verifyJob(rec); errs[i] == nil {
				ids[i] = rec.events[len(rec.events)-1].Result.Finetune.AdapterID
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("publishing adapters: %w", err)
		}
	}
	return ids, nil
}

// served is one generate request as its client saw it.
type served struct {
	idx      int // index into the request pool
	due      time.Time
	sent     time.Time
	arrivals []time.Time // one per token frame
	tokens   []int       // from the done frame
	reason   string
	traced   bool
	err      error
}

// generateBody is the POST /v1/generate request.
type generateBody struct {
	Adapter string `json:"adapter"`
	Prompt  []int  `json:"prompt"`
	Decode  struct {
		Sampling struct {
			MaxTokens int `json:"max_tokens"`
		} `json:"sampling"`
		Sparsity nn.SparsityOptions `json:"sparsity"`
	} `json:"decode"`
}

// generate posts one request and reads its token stream.
func generate(c *http.Client, url string, req genRequest, header map[string]string, rec *served) {
	var body generateBody
	body.Adapter, body.Prompt = req.adapter, req.prompt
	body.Decode.Sampling.MaxTokens = req.maxTokens
	body.Decode.Sparsity = req.sparsity()
	rec.sent = time.Now()
	resp, err := postJSON(c, url+"/v1/generate", body, header)
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = httpError(resp)
		return
	}
	rec.err = readSSE(resp.Body, func(f sseFrame) bool {
		switch f.event {
		case "token":
			rec.arrivals = append(rec.arrivals, f.at)
			return true
		case "done":
			var d struct {
				Tokens []int  `json:"tokens"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(f.data, &d); err != nil {
				rec.err = err
			}
			rec.tokens, rec.reason = d.Tokens, d.Reason
		default:
			rec.err = fmt.Errorf("stream frame %q: %s", f.event, f.data)
		}
		return false
	})
	if rec.err == nil && rec.reason == "" {
		rec.err = fmt.Errorf("stream ended without a done frame")
	}
}

// scrape reads GET /metrics into a name → value map; labelled series keep
// their label set in the name.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// densityPoller samples the plan-density gauges while sparse steps run:
// the gauges hold the last batch's plans, so a run-level mean is the mean
// of samples taken after new sparse steps.
type densityPoller struct {
	stop     chan struct{}
	done     sync.WaitGroup
	mlp, att []float64
}

func pollDensities(read func() (steps, mlp, attn float64, ok bool)) *densityPoller {
	p := &densityPoller{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		last := math.NaN()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				steps, mlp, attn, ok := read()
				if ok && steps != last && !math.IsNaN(last) {
					p.mlp = append(p.mlp, mlp)
					p.att = append(p.att, attn)
				}
				if ok {
					last = steps
				}
			}
		}
	}()
	return p
}

func (p *densityPoller) finish() (mlp, attn float64) {
	close(p.stop)
	p.done.Wait()
	return mean(p.mlp), mean(p.att)
}

// spanDurations collects the durations (ms) of spans with the given names
// from a /debug/traces response.
func spanDurations(c *http.Client, url string, names ...string) (map[string][]float64, error) {
	resp, err := c.Get(url + "/debug/traces?limit=1000")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Recent []trace.TraceRecord `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	var walk func(*trace.SpanRecord)
	walk = func(s *trace.SpanRecord) {
		for _, n := range names {
			if s.Name == n {
				out[n] = append(out[n], float64(s.DurationNs)/1e6)
			}
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	for _, tr := range body.Recent {
		for _, root := range tr.Roots {
			walk(root)
		}
	}
	return out, nil
}

func runServeMixed(o options) (*outcome, error) {
	sc := serveSizes(o.tiny)
	if o.probe {
		sc = sc.probed()
	}
	var ids []string
	srv, setupS, err := medianSetup(sc.setupN, func() (*apiServer, error) {
		s, err := startServer(o.workDir, sc.jobs.workers, o.trace)
		if err != nil {
			return nil, err
		}
		if ids, err = servingSetup(s, sc.jobs, []string{"lora", "adapter"}); err != nil {
			s.close()
			return nil, err
		}
		// Warm the gateway: build the engine and compile both adapters.
		for _, id := range ids {
			var rec served
			generate(newClient(), s.url, genRequest{prompt: []int{11, 12, 13}, maxTokens: 2, adapter: id}, nil, &rec)
			if rec.err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up generate: %w", rec.err)
			}
		}
		return s, nil
	}, (*apiServer).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()

	ref, err := newReferencer(srv.reg, ids)
	if err != nil {
		return nil, err
	}
	pool := genRequests(o.seed, sc.pool, ref.base.Cfg.Vocab, sc.promptMin, sc.promptMax, sc.tokMin, sc.tokMax, ids)
	// Poisson arrivals: exponential gaps at the fixed rate, drawn from the
	// seed like the requests.
	arrivals := tensor.NewRNG(o.seed ^ 0x9e3779b97f4a7c15)
	nextGap := func() time.Duration {
		return time.Duration(-math.Log(1-arrivals.Float64()) / sc.rate * float64(time.Second))
	}

	before, err := scrape(newClient(), srv.url)
	if err != nil {
		return nil, err
	}
	var poller *densityPoller
	if o.trace {
		mc := newClient()
		poller = pollDensities(func() (float64, float64, float64, bool) {
			m, err := scrape(mc, srv.url)
			if err != nil {
				return 0, 0, 0, false
			}
			return m["lexp_infer_sparse_steps_total"], m["lexp_infer_plan_mlp_density"], m["lexp_infer_plan_attn_density"], true
		})
	}

	var (
		mu      sync.Mutex
		records []*served
		n       int
		due     time.Duration
	)
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < sc.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			for {
				mu.Lock()
				due += nextGap()
				at := start.Add(due)
				stop := (at.After(deadline) && n >= sc.minRequests) || time.Since(start) > sc.maxWall
				rec := &served{idx: n % len(pool), due: at, traced: o.trace && n%2 == 0}
				n++
				if !stop {
					records = append(records, rec)
				}
				mu.Unlock()
				if stop {
					return
				}
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				var header map[string]string
				if o.trace && !rec.traced {
					header = map[string]string{"traceparent": unsampled}
				}
				generate(client, srv.url, pool[rec.idx], header, rec)
			}
		}()
	}
	wg.Wait()
	peak := heap.peakMB()
	var planMLP, planAttn float64
	if poller != nil {
		planMLP, planAttn = poller.finish()
	}
	after, err := scrape(newClient(), srv.url)
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	var ttft, itl, itlDense, itlAuto, late, tracedITL, bareITL, rates []float64
	for i, rec := range records {
		req := pool[rec.idx]
		want, err := ref.memoTokens(rec.idx, req)
		if err != nil {
			return nil, err
		}
		if o.corrupt && i == 0 {
			want = append([]int{want[0] + 1}, want[1:]...)
		}
		switch {
		case rec.err != nil:
			out.fail("request %d: %v", i, rec.err)
			continue
		case !equalTokens(rec.tokens, want) || len(rec.arrivals) != len(rec.tokens):
			out.fail("request %d (auto=%v): served %v, reference %v", i, req.auto, rec.tokens, want)
			continue
		}
		out.ok()
		ttft = append(ttft, ms(rec.arrivals[0].Sub(rec.due)))
		late = append(late, ms(rec.sent.Sub(rec.due)))
		if k := len(rec.arrivals) - 1; k > 0 {
			rates = append(rates, float64(k)/rec.arrivals[k].Sub(rec.arrivals[0]).Seconds())
		}
		for k := 1; k < len(rec.arrivals); k++ {
			gap := ms(rec.arrivals[k].Sub(rec.arrivals[k-1]))
			itl = append(itl, gap)
			if req.auto {
				itlAuto = append(itlAuto, gap)
			} else {
				itlDense = append(itlDense, gap)
			}
			if rec.traced {
				tracedITL = append(tracedITL, gap)
			} else {
				bareITL = append(bareITL, gap)
			}
		}
	}
	out.samples["requests"] = len(ttft)
	out.samples["itl_gaps"] = len(itl)
	if !o.trace {
		// The operation is a request, timed from when it was due to its
		// first token (TTFT); the rate is the median speed at which a
		// request streams its tokens after the first.
		out.set("setup_s", "s", setupS)
		out.set("peak_heap_mb", "MB", peak)
		out.set("latency_ms_p50", "ms", median(ttft))
		out.set("latency_ms_p90", "ms", quantile(ttft, 0.9))
		out.set("tokens_per_s", "tokens/s", median(rates))
		return out, nil
	}

	spans, err := spanDurations(newClient(), srv.url, "infer.prefill", "infer.decode_step")
	if err != nil {
		return nil, err
	}
	out.set("infer.prefill_ms", "ms", median(spans["infer.prefill"]))
	out.set("infer.decode_step_ms", "ms", median(spans["infer.decode_step"]))
	out.samples["prefill_spans"] = len(spans["infer.prefill"])
	out.samples["decode_step_spans"] = len(spans["infer.decode_step"])
	occ := "lexp_infer_batch_occupancy_"
	out.set("infer.batch_occupancy_mean", "seqs",
		(after[occ+"sum"]-before[occ+"sum"])/(after[occ+"count"]-before[occ+"count"]))
	out.set("infer.plan_mlp_density", "ratio", planMLP)
	out.set("infer.plan_attn_density", "ratio", planAttn)
	out.set("serve.itl_ms_p50", "ms", median(itl))
	out.set("serve.itl_ms_p90", "ms", quantile(itl, 0.9))
	out.set("serve.itl_dense_ms_p50", "ms", median(itlDense))
	out.set("serve.itl_auto_ms_p50", "ms", median(itlAuto))
	out.set("loadgen.late_ms_p90", "ms", quantile(late, 0.9))
	out.set("bench.trace_overhead_pct", "%", 100*(median(tracedITL)/median(bareITL)-1))
	referenceLayers(out, ref, pool, records)
	return out, nil
}

// referenceLayers times in-process reference decodes of up to 32 served
// requests (predictor.serving_plan_us, nn.decode_step_us_*), checking the
// step-by-step decode reproduces the served tokens, and measures how many
// auto-mode tokens equal the dense reference (serve.sparse_token_match).
func referenceLayers(out *outcome, ref *referencer, pool []genRequest, records []*served) {
	var dt decodeTimes
	var match, total int
	timedN := 0
	denseRef := map[int][]int{}
	for i, rec := range records {
		if rec.err != nil {
			continue
		}
		req := pool[rec.idx]
		if timedN < 32 {
			timedN++
			got, err := ref.timed(req, &dt)
			out.check(err == nil && equalTokens(got, rec.tokens), "request %d: step-by-step reference %v (%v), served %v", i, got, err, rec.tokens)
		}
		if req.auto {
			dense, ok := denseRef[rec.idx]
			if !ok {
				var err error
				if dense, err = ref.tokens(req, true); err != nil {
					out.fail("request %d: dense reference: %v", i, err)
					continue
				}
				denseRef[rec.idx] = dense
			}
			m, t := matchShare(rec.tokens, dense)
			match += m
			total += t
		}
	}
	out.set("predictor.serving_plan_us", "us", median(dt.plan))
	out.set("nn.decode_step_us_dense", "us", median(dt.dense))
	out.set("nn.decode_step_us_sparse", "us", median(dt.sparse))
	out.set("serve.sparse_token_match", "ratio", float64(match)/float64(max(1, total)))
	out.samples["reference_decodes"] = timedN
}
