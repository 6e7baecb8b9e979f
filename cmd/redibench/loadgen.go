package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"redi/internal/serve"
)

// closedLoop runs conns clients that each send the next of requests
// 0..n-1 as soon as their previous one completed, until every request has
// been sent once.
func closedLoop(conns, n int, do func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// client sends replay records to one server over a bounded set of
// keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one record and reads the whole response.
func (c *client) do(rec serve.Record) (status int, body []byte, err error) {
	req, err := http.NewRequest(rec.Method, c.base+rec.Path, strings.NewReader(rec.Body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// replayBlock renders a response the way serve.Replay prints it, so live
// responses and in-process replays compare byte for byte.
func replayBlock(rec serve.Record, status int, body []byte) string {
	return fmt.Sprintf("## %s %s\n%d\n%s", rec.Method, rec.Path, status, body)
}

func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) // a hash.Hash never returns an error
	return h.Sum64()
}
