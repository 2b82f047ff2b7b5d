package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
)

// Client talks to one master over at most a fixed number of keep-alive
// connections. It reads every response body in full, so each connection
// goes back to the pool, and counts fresh versus reused connections.
type Client struct {
	base   string
	hc     *http.Client
	trace  *httptrace.ClientTrace
	reused atomic.Int64
	fresh  atomic.Int64
}

// NewClient returns a client for the master at addr using at most conns
// connections.
func NewClient(addr string, conns int) *Client {
	c := &Client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	c.trace = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			c.reused.Add(1)
		} else {
			c.fresh.Add(1)
		}
	}}
	return c
}

// Do sends one request with an X-Trace-ID header and returns the status
// and the whole body.
func (c *Client) Do(ctx context.Context, method, path, traceID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, c.trace), method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set("X-Trace-ID", traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// Conns returns how many connections were reused and how many were
// opened.
func (c *Client) Conns() (reused, fresh int64) { return c.reused.Load(), c.fresh.Load() }

// Close drops the idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }
