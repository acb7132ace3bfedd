package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// wireSample is one record of the gzipped JSON-lines ingest wire (v3:
// per-sample source and labels), written here independently of the
// program's own encoder — the way a non-agent producer would.
type wireSample struct {
	Time      float64           `json:"time"`
	Collector string            `json:"collector"`
	Source    string            `json:"source,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
	Metric    string            `json:"metric"`
	Scope     string            `json:"scope"`
	ID        int               `json:"id"`
	Value     float64           `json:"value"`
}

// gzipJSONLines encodes records as the gzipped JSON-lines wire.
func gzipJSONLines(records []wireSample) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := json.NewEncoder(zw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// postIngest POSTs one gzipped JSON-lines payload to a receiver's
// /ingest and drains the response.
func postIngest(client *http.Client, url string, payload []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// getBody GETs a URL and returns the body of a 200 response.
func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// timedTransport times every POST round trip its client makes and
// counts the request bytes, so a sink's Write time splits into encode
// work and the round trips it waited on.  Each round trip is one
// ingest.post span under the current operation.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu     sync.Mutex
	parent int64  // operation span the next round trips belong to
	kind   string // span name: ingest.post.new or ingest.post.known
	wait   time.Duration
	bytes  int64
}

func newTimedTransport(tr *tracer) *timedTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	return &timedTransport{base: base, tr: tr}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.wait += time.Since(start)
	if req.ContentLength > 0 {
		t.bytes += req.ContentLength
	}
	parent, kind := t.parent, t.kind
	t.mu.Unlock()
	if req.Method == http.MethodPost {
		t.tr.span(kind, parent, start)
	}
	return resp, err
}

// begin attributes the following round trips to one operation and
// resets the accumulated wait and bytes.
func (t *timedTransport) begin(parent int64, kind string) {
	t.mu.Lock()
	t.parent, t.kind, t.wait, t.bytes = parent, kind, 0, 0
	t.mu.Unlock()
}

// took reports the round-trip time and request bytes since begin.
func (t *timedTransport) took() (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wait, t.bytes
}

func (t *timedTransport) closeIdle() {
	if ci, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}
