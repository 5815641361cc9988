package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"longexposure/internal/jobs"
)

type jobsScale struct {
	model           string
	seq, steps      int
	workers         int
	minJobs, setupN int
	maxWall         time.Duration
}

func jobsSizes(tiny bool) jobsScale {
	if tiny {
		return jobsScale{model: "sim-small", seq: 16, steps: 2, workers: 2, minJobs: 4, setupN: 1, maxWall: 30 * time.Second}
	}
	return jobsScale{model: "OPT-1.3B", seq: 64, steps: 4, workers: 2, minJobs: 100, setupN: 5, maxWall: 100 * time.Second}
}

// probed shrinks a scale to a probe's: one set-up and 6 jobs.
func (sc jobsScale) probed() jobsScale {
	sc.setupN = 1
	sc.minJobs = min(sc.minJobs, 6)
	return sc
}

// jobBatch is every job's batch size.
const jobBatch = 2

var jobMethods = []string{"lora", "adapter", "bitfit"}

// jobSpec is the n-th submission of a run. Every job gets its own seed, so
// none is served from the result cache.
func jobSpec(sc jobsScale, seed uint64, n int) jobs.Spec {
	return jobs.Spec{Kind: jobs.KindFinetune, Finetune: &jobs.FinetuneSpec{
		Model:  sc.model,
		Method: jobMethods[n%len(jobMethods)],
		Seq:    sc.seq,
		Batch:  jobBatch,
		Steps:  sc.steps,
		Seed:   seed*1_000_003 + uint64(n) + 1,
	}}
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	spec      jobs.Spec
	submitted time.Time
	finished  time.Time // arrival of the terminal frame
	events    []jobs.Event
	traced    bool
	err       error
}

// runJob submits a job and follows its event stream to the terminal
// event.
func runJob(c *http.Client, url string, spec jobs.Spec) jobRecord {
	rec := jobRecord{spec: spec, submitted: time.Now()}
	resp, err := postJSON(c, url+"/v1/jobs", spec, nil)
	if err != nil {
		rec.err = err
		return rec
	}
	var j jobs.Job
	if resp.StatusCode != http.StatusAccepted {
		rec.err = httpError(resp)
	} else {
		rec.err = json.NewDecoder(resp.Body).Decode(&j)
	}
	resp.Body.Close()
	if rec.err != nil {
		return rec
	}
	resp, err = c.Get(url + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = httpError(resp)
		return rec
	}
	rec.err = readSSE(resp.Body, func(f sseFrame) bool {
		var e jobs.Event
		if err := json.Unmarshal(f.data, &e); err != nil {
			rec.err = err
			return false
		}
		rec.events = append(rec.events, e)
		if e.Kind.Terminal() {
			rec.finished = f.at
			return false
		}
		return true
	})
	if rec.err == nil && rec.finished.IsZero() {
		rec.err = fmt.Errorf("job %s: stream ended without a terminal event", j.ID)
	}
	return rec
}

// verifyJob checks a job ended done with finite losses and an adapter id.
func verifyJob(rec jobRecord) error {
	if rec.err != nil {
		return rec.err
	}
	last := rec.events[len(rec.events)-1]
	if last.Kind != jobs.EventDone || last.Result == nil || last.Result.Finetune == nil {
		return fmt.Errorf("job %s ended %s: %s", last.JobID, last.Kind, last.Error)
	}
	res := last.Result.Finetune
	if !finite(res.FirstLoss) || !finite(res.FinalLoss) {
		return fmt.Errorf("job %s: losses %v → %v", last.JobID, res.FirstLoss, res.FinalLoss)
	}
	steps := 0
	for _, e := range rec.events {
		if e.Progress != nil {
			steps++
			if !finite(e.Progress.Loss) {
				return fmt.Errorf("job %s: step %d loss %v", last.JobID, e.Progress.GlobalStep, e.Progress.Loss)
			}
		}
	}
	if steps != rec.spec.Finetune.Steps {
		return fmt.Errorf("job %s: %d step events, want %d", last.JobID, steps, rec.spec.Finetune.Steps)
	}
	if res.AdapterID == "" {
		return fmt.Errorf("job %s: no adapter id", last.JobID)
	}
	return nil
}

// jobPhases splits a job's life by its event timestamps: queued→started,
// started→"predictors trained", that→last step, last step→"adapter
// published". ok is false when an event is missing.
func jobPhases(events []jobs.Event) (queue, pretrain, train, publish time.Duration, ok bool) {
	var queued, started, trained, lastStep, published time.Time
	for _, e := range events {
		switch {
		case e.Kind == jobs.EventQueued:
			queued = e.Time
		case e.Kind == jobs.EventStarted:
			started = e.Time
		case e.Progress != nil:
			lastStep = e.Time
		case strings.HasPrefix(e.Message, "predictors trained"):
			trained = e.Time
		case strings.HasPrefix(e.Message, "adapter published"):
			published = e.Time
		}
	}
	for _, t := range []time.Time{queued, started, trained, lastStep, published} {
		if t.IsZero() {
			return 0, 0, 0, 0, false
		}
	}
	return started.Sub(queued), trained.Sub(started), lastStep.Sub(trained), published.Sub(lastStep), true
}

func runFinetuneJobs(o options) (*outcome, error) {
	sc := jobsSizes(o.tiny)
	if o.probe {
		sc = sc.probed()
	}
	warm := 0 // warm-up jobs take seeds below the measured ones
	setup := func(traced bool) func() (*apiServer, error) {
		return func() (*apiServer, error) {
			s, err := startServer(o.workDir, sc.workers, traced)
			if err != nil {
				return nil, err
			}
			warm++
			rec := runJob(newClient(), s.url, jobSpec(sc, o.seed+1<<32, warm))
			if err := verifyJob(rec); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up job: %w", err)
			}
			return s, nil
		}
	}
	srv, setupS, err := medianSetup(sc.setupN, setup(o.trace), (*apiServer).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	// The traced run also keeps an untraced server, and jobs alternate
	// between the two, so tracing's own cost is measured in-run.
	servers := []*apiServer{srv}
	if o.trace {
		bare, err := setup(false)()
		if err != nil {
			return nil, err
		}
		defer bare.close()
		servers = append(servers, bare)
	}

	// One client submits the jobs one after another. With two, equal-length
	// jobs from the two closed loops lock into whatever overlap the run
	// starts with, so the median job time jumps between the overlapped and
	// the staggered case from run to run.
	clients := make([]*http.Client, len(servers))
	for i := range clients {
		clients[i] = newClient()
	}
	var records []jobRecord
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; ; n++ {
		now := time.Now()
		if (now.After(deadline) && n >= sc.minJobs) || now.Sub(start) > sc.maxWall {
			break
		}
		target := n % len(servers)
		rec := runJob(clients[target], servers[target].url, jobSpec(sc, o.seed, n))
		rec.traced = servers[target].traced
		records = append(records, rec)
	}
	elapsed := time.Since(start)
	peak := heap.peakMB()

	out := newOutcome()
	var jobS, tracedS, bareS, queue, pretrain, trainMs, publish []float64
	tokens := 0
	for i, rec := range records {
		if o.corrupt && i == 0 && len(rec.events) > 0 {
			// Test hook: a job whose terminal event is a failure must count.
			last := len(rec.events) - 1
			rec.events = append([]jobs.Event(nil), rec.events...)
			rec.events[last].Kind, rec.events[last].Result = jobs.EventFailed, nil
		}
		if err := verifyJob(rec); err != nil {
			out.fail("%v", err)
			continue
		}
		out.ok()
		tokens += rec.spec.Finetune.Steps * jobBatch * rec.spec.Finetune.Seq
		s := rec.finished.Sub(rec.submitted).Seconds()
		jobS = append(jobS, s)
		if rec.traced {
			tracedS = append(tracedS, s)
		} else {
			bareS = append(bareS, s)
		}
		if q, p, t, pub, ok := jobPhases(rec.events); ok {
			queue = append(queue, ms(q))
			pretrain = append(pretrain, ms(p))
			trainMs = append(trainMs, ms(t))
			publish = append(publish, ms(pub))
		}
	}
	out.samples["jobs"] = len(jobS)
	if !o.trace {
		// The operation is a job, from submission to its done frame; its
		// tokens are the training tokens it fine-tunes on, so the rate is
		// the service's fine-tuning throughput.
		out.set("setup_s", "s", setupS)
		out.set("peak_heap_mb", "MB", peak)
		out.set("latency_ms_p50", "ms", 1000*median(jobS))
		out.set("latency_ms_p90", "ms", 1000*quantile(jobS, 0.9))
		out.set("tokens_per_s", "tokens/s", float64(tokens)/elapsed.Seconds())
		return out, nil
	}
	out.set("jobs.per_s", "1/s", float64(len(jobS))/elapsed.Seconds())
	out.set("jobs.queue_ms", "ms", median(queue))
	out.set("jobs.pretrain_ms", "ms", median(pretrain))
	out.set("jobs.train_ms", "ms", median(trainMs))
	out.set("registry.publish_ms", "ms", median(publish))
	out.set("bench.trace_overhead_pct", "%", 100*(median(tracedS)/median(bareS)-1))
	out.samples["phases"] = len(queue)
	return out, nil
}
