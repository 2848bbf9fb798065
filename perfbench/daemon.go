package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"iterskew/internal/serve"
)

// daemon is an in-process iterskewd: serve.New behind a real HTTP server on
// a loopback TCP listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startDaemon boots a daemon; wrap, when non-nil, decorates its handler.
func startDaemon(cfg serve.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(cfg)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return d, nil
}

// stop drains the daemon, shuts its server down and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if e := d.hs.Shutdown(ctx); err == nil {
		err = e
	}
	<-d.done
	return err
}

// client is one caller of a daemon, with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request tagged with the op id and reads the whole reply.
func (c *client) post(path, op string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-Id", op)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// upload sends one netlist and decodes the acknowledgement.
func (c *client) upload(op string, text []byte) (*serve.UploadResponse, error) {
	code, b, err := c.post("/v1/graphs", op, text)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("upload: status %d: %s", code, bytes.TrimSpace(b))
	}
	var up serve.UploadResponse
	if err := json.Unmarshal(b, &up); err != nil {
		return nil, fmt.Errorf("upload: %w", err)
	}
	return &up, nil
}

// opRecord is one op's outcome as its client saw it.
type opRecord struct {
	idx   int // position in the op list
	latMS float64
	err   error
	hit   bool // an upload answered from the graph cache
}

// drive runs n closed-loop clients. Each asks next for the index of its next
// op (false stops it) and runs do; the records of every client are
// returned in no particular order.
func drive(n int, next func(c int) (int, bool), do func(c, i int) opRecord) []opRecord {
	out := make([][]opRecord, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := next(c)
				if !ok {
					return
				}
				out[c] = append(out[c], do(c, i))
			}
		}(c)
	}
	wg.Wait()
	var all []opRecord
	for _, r := range out {
		all = append(all, r...)
	}
	return all
}

// shared hands out op indices 0..limit-1 to every client in turn (limit <=
// 0: unbounded) until the deadline (zero: none).
func shared(limit int, deadline time.Time) func(int) (int, bool) {
	var n atomic.Int64
	return func(int) (int, bool) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return 0, false
		}
		i := int(n.Add(1) - 1)
		return i, limit <= 0 || i < limit
	}
}
