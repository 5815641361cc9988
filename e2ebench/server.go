package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/jobs"
	"longexposure/internal/obs"
	"longexposure/internal/registry"
	"longexposure/internal/serve"
	"longexposure/internal/trace"
)

// apiServer is the job service and generation gateway under test, wired
// the way cmd/longexpd wires it by default — metrics on, accounting in
// memory, no limits, no SLO engine, SSE keepalives every 15s, an adapter
// registry and the info-level request log — except that the log is
// formatted and then discarded, the registry lives in a temporary
// directory, the listener takes a free loopback port, and trace sampling
// is 1 in the traced run and off otherwise.
type apiServer struct {
	api    *serve.Server
	reg    *registry.Store
	plane  *account.Plane
	http   *http.Server
	served chan error
	url    string
	regDir string
	traced bool
}

func startServer(workDir string, workers int, traced bool) (*apiServer, error) {
	regDir, err := os.MkdirTemp(workDir, "registry-")
	if err != nil {
		return nil, err
	}
	logger := trace.NewLogger(io.Discard, "info", "text")
	jcfg := jobs.Config{Workers: workers, CacheSize: 64, Logger: logger}
	opts := []serve.Option{serve.WithLogger(logger), serve.WithSSEKeepalive(15 * time.Second)}
	if traced {
		tr := trace.New(trace.Config{SampleRatio: 1, Capacity: 4096, SlowestN: 32})
		jcfg.Tracer = tr
		opts = append(opts, serve.WithTracing(tr))
	}
	metrics := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(metrics)
	obs.RegisterBuildInfo(metrics, "e2ebench")
	jcfg.Obs = metrics
	opts = append(opts, serve.WithMetrics(metrics))
	plane, err := account.New(account.Config{Metrics: obs.NewAccountMetrics(metrics)})
	if err != nil {
		os.RemoveAll(regDir)
		return nil, err
	}
	jcfg.Account = plane
	opts = append(opts, serve.WithAccounting(plane, true))
	reg, err := registry.Open(regDir)
	if err != nil {
		plane.Close()
		os.RemoveAll(regDir)
		return nil, err
	}
	reg.Instrument(obs.NewRegistryMetrics(metrics))
	jcfg.Registry = reg
	opts = append(opts, serve.WithRegistry(reg, 4))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		plane.Close()
		os.RemoveAll(regDir)
		return nil, err
	}
	api := serve.New(jobs.NewStore(jcfg), opts...)
	s := &apiServer{
		api: api, reg: reg, plane: plane, regDir: regDir, traced: traced,
		http:   &http.Server{Handler: api.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, drains the job store and the generation
// engines, and removes the registry directory.
func (s *apiServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // in-flight streams are finished or abandoned either way
	<-s.served
	_ = s.api.Shutdown(ctx) // drains jobs; a drain timeout leaves nothing to report
	s.plane.Close()
	os.RemoveAll(s.regDir)
}

// newClient returns an HTTP client that holds at most one connection, so
// the number of clients bounds the connections the server sees.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// unsampled is a W3C traceparent whose sampled flag is clear; the server
// honours it, so the request records no spans even under sampling 1.
const unsampled = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"

// postJSON sends body and returns the response; the caller closes it.
func postJSON(c *http.Client, url string, body any, header map[string]string) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	return c.Do(req)
}

// sseFrame is one server-sent event with its arrival time.
type sseFrame struct {
	event string
	data  []byte
	at    time.Time
}

// readSSE calls fn for every frame of an event stream until fn returns
// false or the stream ends; comment frames (keepalives) are skipped.
func readSSE(body io.Reader, fn func(sseFrame) bool) error {
	br := bufio.NewReader(body)
	var f sseFrame
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		s := strings.TrimRight(string(line), "\r\n")
		switch {
		case s == "":
			if f.event != "" || f.data != nil {
				f.at = time.Now()
				if !fn(f) {
					return nil
				}
			}
			f = sseFrame{}
		case strings.HasPrefix(s, ":"):
		case strings.HasPrefix(s, "event: "):
			f.event = s[len("event: "):]
		case strings.HasPrefix(s, "data: "):
			f.data = append(f.data, s[len("data: "):]...)
		}
	}
}

// httpError reads an error response body into an error.
func httpError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
}
