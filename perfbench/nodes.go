package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weboftrust"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
)

// endpoint is one in-process HTTP server on a loopback listener.
type endpoint struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the server and waits for its Serve loop to return.
func (e *endpoint) close() {
	e.srv.Close()
	<-e.done
}

// stack is one booted topology: trustd shards, and a router in front of
// them when there is more than one.
type stack struct {
	servers []*server.Server
	tailers []*server.Tailer
	nodes   []*endpoint
	router  *endpoint
	// front is the address clients send to: the router, or the only node.
	front string
	// trace, when set, makes the span wrappers record.
	trace atomic.Pointer[tracer]
}

// bootStack opens shards trustd servers over the log with trustd's
// default options, each behind its own listener, and a router with its
// default options in front when shards > 1. wrap installs the span
// wrappers around every handler (left out of untraced runs entirely).
func bootStack(logPath string, shards int, wrap bool) (*stack, error) {
	st := &stack{}
	handler := func(l layer, h http.Handler) http.Handler {
		if !wrap {
			return h
		}
		return tracedHandler(&st.trace, l, h)
	}
	var urls [][]string
	for i := 0; i < shards; i++ {
		var derive []weboftrust.Option
		if shards > 1 {
			derive = append(derive, weboftrust.WithShard(i, shards))
		}
		// The tailer's own timer never runs: the benchmark calls Poll.
		srv, tailer, err := server.Open(logPath, time.Hour, server.Options{}, derive...)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("open shard %d: %w", i, err)
		}
		ep, err := listen(handler(lShard, srv.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.tailers = append(st.tailers, tailer)
		st.nodes = append(st.nodes, ep)
		urls = append(urls, []string{ep.url})
	}
	st.front = st.nodes[0].url
	if shards > 1 {
		rt, err := router.New(router.Config{Shards: urls})
		if err != nil {
			st.close()
			return nil, err
		}
		if st.router, err = listen(handler(lRouter, rt.Handler())); err != nil {
			st.close()
			return nil, err
		}
		st.front = st.router.url
	}
	return st, nil
}

func (st *stack) close() {
	if st.router != nil {
		st.router.close()
	}
	for _, n := range st.nodes {
		n.close()
	}
}

// clientConns is the connection limit of one benchmark client; the
// workloads run two clients, one per CPU of the reference machine.
const clientConns = 1

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clientConns,
		MaxConnsPerHost:     clientConns,
		DisableCompression:  true,
	}}
}

// get fetches url into buf and returns the status.
func get(c *http.Client, url string, buf *bytes.Buffer) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// fetchAll sends every path to base with two clients and fails on the
// first answer that is not 200.
func fetchAll(base string, paths []string) error {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			var buf bytes.Buffer
			for i := next.Add(1) - 1; i < int64(len(paths)); i = next.Add(1) - 1 {
				status, err := get(cl, base+paths[i], &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d: %s", paths[i], status, strings.TrimSpace(buf.String()))
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scrape reads a /metrics page into name → value, the name keeping any
// labels.
func scrape(base string) (map[string]float64, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	status, err := get(cl, base+"/metrics", &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
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

// scrapeSum sums one counter over the given nodes.
func scrapeSum(eps []*endpoint, name string) (float64, error) {
	var sum float64
	for _, ep := range eps {
		m, err := scrape(ep.url)
		if err != nil {
			return 0, err
		}
		sum += m[name]
	}
	return sum, nil
}
