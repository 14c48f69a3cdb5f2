package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"explainit"
	"explainit/internal/apihttp"
)

// result is a decoded /api/v1/query response.
type result struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// api is a loopback client for one server. The transport is capped at two
// connections: one per client goroutine (reader and writer).
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &api{base: base, hc: &http.Client{Transport: tr}}
}

// post sends body as JSON and decodes a 2xx response into out. It returns
// the response body size.
func (a *api) post(path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := a.hc.Post(a.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return len(data), fmt.Errorf("POST %s: %w", path, err)
	}
	return len(data), nil
}

// query runs one statement through /api/v1/query.
func (a *api) query(sql string) (result, int, error) {
	var r result
	n, err := a.post("/api/v1/query", map[string]string{"sql": sql}, &r)
	return r, n, err
}

// put sends one batch and checks that every record was stored.
func (a *api) put(recs []apihttp.PutRecord) error {
	var r struct {
		Stored int `json:"stored"`
	}
	if _, err := a.post("/api/v1/put", recs, &r); err != nil {
		return err
	}
	if r.Stored != len(recs) {
		return fmt.Errorf("put stored %d of %d records", r.Stored, len(recs))
	}
	return nil
}

// refresh rebuilds the families over [from, to) at the given step and
// checks how many were built.
func (a *api) refresh(from, to time.Time, step time.Duration, wantFamilies int) error {
	var fams []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	req := map[string]any{"group_by": "name", "from": from.Unix(), "to": to.Unix(), "step_seconds": int64(step / time.Second)}
	if _, err := a.post("/api/v1/families", req, &fams); err != nil {
		return err
	}
	if len(fams) != wantFamilies {
		return fmt.Errorf("refresh built %d families, want %d", len(fams), wantFamilies)
	}
	return nil
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// server serves apihttp on a loopback port for one client.
type server struct {
	client *explainit.Client
	api    *apihttp.Server
	hs     *http.Server
	done   chan error
	url    string
}

func startServer(c *explainit.Client) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{client: c, api: apihttp.NewServer(c), done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.api}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down and waits for its serve loop to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.api.Close()
	return err
}
