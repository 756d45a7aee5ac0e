package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"acb/internal/service"
)

// Client is the inter-node HTTP client every cluster RPC goes through.
// Each request first fires the faultinject points "rpc" (whole fabric)
// and "rpc.<node>" (one link), which is how chaos tests open network
// partitions deterministically: a rule on rpc.w2 severs every call to
// w2 without touching the process, and Clear (or a rule Limit) heals it.
//
// Every RPC carries an explicit context deadline (the caller's, or the
// client's default when the caller set none) — never the transport's or
// the server's idea of a timeout — and idempotent RPCs (health probes,
// job listings, store fetches) retry transient failures a bounded
// number of times with equal-jitter backoff. When the client has an
// epoch, it is stamped on every request; a 409 reply carrying a higher
// epoch means this coordinator has been fenced, reported once through
// the onStale hook.
type Client struct {
	http    *http.Client
	faults  service.FaultPoints
	timeout time.Duration

	mu      sync.Mutex
	epoch   uint64
	onStale func(uint64)
	tries   int
	base    time.Duration
	max     time.Duration
	rng     *rand.Rand
}

// Default retry schedule for idempotent RPCs: up to 3 attempts, backoff
// uniformly drawn from [base/2, base], doubling per attempt, capped.
const (
	defaultRetryTries = 3
	defaultRetryBase  = 100 * time.Millisecond
	defaultRetryMax   = 2 * time.Second
)

// NewClient returns a client with the given default per-RPC deadline
// (0 = 10s) and optional fault injector (nil in production).
func NewClient(timeout time.Duration, faults service.FaultPoints) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Client{
		// No http.Client.Timeout: deadlines are per-RPC contexts, and a
		// whole-client timeout would sever long-lived streams.
		http:    &http.Client{},
		faults:  faults,
		timeout: timeout,
		tries:   defaultRetryTries,
		base:    defaultRetryBase,
		max:     defaultRetryMax,
		rng:     rand.New(rand.NewSource(1)),
	}
}

// SetRetry overrides the idempotent-RPC retry schedule (tests; tries=1
// disables retries). seed keeps the jitter deterministic.
func (c *Client) SetRetry(tries int, base, max time.Duration, seed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tries > 0 {
		c.tries = tries
	}
	if base > 0 {
		c.base = base
	}
	if max > 0 {
		c.max = max
	}
	c.rng = rand.New(rand.NewSource(seed))
}

// SetEpoch installs the fencing epoch stamped on every request and the
// hook invoked (with the higher epoch) when a peer fences this client.
func (c *Client) SetEpoch(epoch uint64, onStale func(uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	c.onStale = onStale
}

// statusError carries a non-2xx response so callers can branch on the
// code (429 backpressure vs 404 unknown vs 5xx).
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: remote status %d: %s", e.code, e.body)
}

// StatusCode extracts the HTTP status from an inter-node RPC error
// (0 when the error was transport-level, not a response).
func StatusCode(err error) int {
	if se, ok := err.(*statusError); ok {
		return se.code
	}
	return 0
}

func (c *Client) fire(node string) error {
	if c.faults == nil {
		return nil
	}
	if err := c.faults.Fire("rpc"); err != nil {
		return fmt.Errorf("cluster: rpc to %s: %w", node, err)
	}
	if err := c.faults.Fire("rpc." + node); err != nil {
		return fmt.Errorf("cluster: rpc to %s: %w", node, err)
	}
	return nil
}

// withDeadline guarantees an explicit deadline on ctx.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// stamp adds the epoch header when this client has one.
func (c *Client) stamp(req *http.Request) {
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	if epoch > 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
}

// noteFenced inspects a 409 response for a higher epoch and reports it.
func (c *Client) noteFenced(resp *http.Response) {
	if resp.StatusCode != http.StatusConflict {
		return
	}
	h := resp.Header.Get(EpochHeader)
	if h == "" {
		return
	}
	n, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return
	}
	c.mu.Lock()
	hook := c.onStale
	stale := c.epoch > 0 && n > c.epoch
	c.mu.Unlock()
	if stale && hook != nil {
		hook(n)
	}
}

// do performs one RPC against a node: method + url, optional JSON body
// in, optional JSON decode into out. Non-2xx responses become
// *statusError with the response body's error message.
func (c *Client) do(ctx context.Context, node, method, url string, in, out interface{}) error {
	if err := c.fire(node); err != nil {
		return err
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.stamp(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.noteFenced(resp)
		var ae struct {
			Error string `json:"error"`
		}
		msg := string(b)
		if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return &statusError{code: resp.StatusCode, body: msg}
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// retriable reports whether an idempotent RPC should be re-attempted:
// transport failures and 5xx/429 are transient; other response codes
// (404 miss, 409 fenced, 4xx misuse) are authoritative.
func retriable(err error) bool {
	code := StatusCode(err)
	return code == 0 || code >= 500 || code == http.StatusTooManyRequests
}

// backoff sleeps one equal-jitter step (service.Backoff) or until ctx
// is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	c.mu.Lock()
	d := service.Backoff(attempt, c.base, c.max, c.rng)
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doIdempotent is do with bounded equal-jitter retries, for RPCs that
// are safe to repeat (GETs: probes, job listings, metrics scrapes).
// The caller's ctx bounds the whole schedule; each attempt still gets
// its own explicit deadline inside do.
func (c *Client) doIdempotent(ctx context.Context, node, method, url string, in, out interface{}) error {
	c.mu.Lock()
	tries := c.tries
	c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt-1); err != nil {
				return lastErr
			}
		}
		lastErr = c.do(ctx, node, method, url, in, out)
		if lastErr == nil || !retriable(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// getBytes performs one GET and returns the raw response body. A 404
// returns (nil, nil): the peer authoritatively does not have it.
func (c *Client) getBytes(ctx context.Context, node, url string) ([]byte, error) {
	if err := c.fire(node); err != nil {
		return nil, err
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	c.stamp(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		c.noteFenced(resp)
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, &statusError{code: resp.StatusCode, body: string(b)}
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// getBytesIdempotent is getBytes with the idempotent retry schedule
// (store and envelope fetches).
func (c *Client) getBytesIdempotent(ctx context.Context, node, url string) ([]byte, error) {
	c.mu.Lock()
	tries := c.tries
	c.mu.Unlock()
	var lastB []byte
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt-1); err != nil {
				return nil, lastErr
			}
		}
		lastB, lastErr = c.getBytes(ctx, node, url)
		if lastErr == nil || !retriable(lastErr) {
			return lastB, lastErr
		}
	}
	return nil, lastErr
}

// putBytes PUTs a raw body (result-envelope replication). Not retried:
// replication failures are counted and the coordinator's own copy
// already satisfies durability.
func (c *Client) putBytes(ctx context.Context, node, url string, body []byte) error {
	if err := c.fire(node); err != nil {
		return err
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	c.stamp(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.noteFenced(resp)
		return &statusError{code: resp.StatusCode, body: string(b)}
	}
	return nil
}

// PeerFetcher builds the service.PeerFetchFunc for a worker shard: on a
// local store miss, ask the shards that carry the key — the ring owner
// first, then its successor, which holds the key's replica under the
// coordinator's RF=2 result replication — via GET /v1/store/{key}.
// Shards serve that endpoint from local tiers only (never their own
// peer tier), which is what makes the recursion terminate: two shards
// can never chase each other for a key neither has.
//
// self is skipped in the candidate list (asking yourself is the miss
// you already had). members maps node name → base URL and is the static
// fleet; liveness doesn't matter here — a dead candidate is a transport
// error, and the next candidate is tried. First hit wins; all-404 is an
// authoritative miss; a miss with transport errors reports the first
// error so the store counts it.
func PeerFetcher(self string, members map[string]string, client *Client) service.PeerFetchFunc {
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	ring := NewRing(0, names...)
	return func(ctx context.Context, key string) ([]byte, error) {
		var firstErr error
		for _, name := range ring.Owners(key, 2) {
			if name == self {
				continue
			}
			base, ok := members[name]
			if !ok {
				continue
			}
			b, err := client.getBytesIdempotent(ctx, name, base+"/v1/store/"+key)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if b != nil {
				return b, nil
			}
		}
		return nil, firstErr
	}
}
