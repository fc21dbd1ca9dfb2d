package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"vxa"
)

// Failure kinds. An empty kind is success.
const (
	kindWrongBytes = "wrong_bytes"  // a decode finished with bytes unlike the reference: fails the run
	kindCRC        = "crc"          // the extractor's own CRC verdict rejected the output
	kindTruncated  = "truncated"    // a 200 whose body ended early
	kindNoResponse = "no_response"  // the connection ended without a status line
	kindShedHeld   = "shed_held"    // 503, 504, 521 or 429: load shed, held down or quarantined
	kindError      = "error_status" // any other error status or extraction error
)

var failKinds = []string{kindWrongBytes, kindCRC, kindTruncated, kindNoResponse, kindShedHeld, kindError}

// tally counts operations sent, succeeded and failed, by failure kind.
type tally struct {
	mu    sync.Mutex
	sent  int
	ok    int
	fails map[string]int
	// firstWrong describes the first wrong-bytes failure, for the report.
	firstWrong string
}

// add counts one operation; label and index name it in the report if
// its bytes were wrong (formatted only then, off the request path).
func (t *tally) add(kind, label string, index int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent++
	if kind == "" {
		t.ok++
		return
	}
	if t.fails == nil {
		t.fails = map[string]int{}
	}
	t.fails[kind]++
	if kind == kindWrongBytes && t.firstWrong == "" {
		t.firstWrong = fmt.Sprintf("%s #%d", label, index)
	}
}

func (t *tally) failed() int { return t.sent - t.ok }

// merge adds o's counts to t.
func (t *tally) merge(o *tally) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent += o.sent
	t.ok += o.ok
	for k, n := range o.fails {
		if t.fails == nil {
			t.fails = map[string]int{}
		}
		t.fails[k] += n
	}
	if t.firstWrong == "" {
		t.firstWrong = o.firstWrong
	}
}

// postResult is one HTTP exchange as the client saw it.
type postResult struct {
	kind  string
	shard string // X-Vxa-Shard of the response
	n     int    // body bytes received
}

// post sends body to url and compares the response body with want.
func post(c *http.Client, url string, body, want []byte, id uint64) postResult {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return postResult{kind: kindError}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if id != 0 {
		req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return postResult{kind: kindNoResponse}
	}
	defer resp.Body.Close()
	got, rerr := io.ReadAll(resp.Body)
	res := postResult{shard: resp.Header.Get(shardHeader), n: len(got)}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusGatewayTimeout ||
		resp.StatusCode == 521 || resp.StatusCode == http.StatusTooManyRequests:
		res.kind = kindShedHeld
	case resp.StatusCode != http.StatusOK:
		res.kind = kindError
	case rerr != nil:
		res.kind = kindTruncated
	case !bytes.Equal(got, want):
		res.kind = kindWrongBytes
	}
	return res
}

// extractKind classifies one in-process extraction result against its
// reference bytes.
func extractKind(data []byte, err error, want []byte) string {
	switch {
	case err != nil && errors.Is(err, vxa.ErrBadArchive) && strings.Contains(err.Error(), "CRC"):
		return kindCRC
	case err != nil:
		return kindError
	case !bytes.Equal(data, want):
		return kindWrongBytes
	}
	return ""
}
