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

// noteFenced inspects a 409 response for a higher epoch and reports it.
func (c *Client) noteFenced(resp *http.Response) {
	if resp.StatusCode != http.StatusConflict {
		return
	}
	n, err := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64)
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

// Reply caps: a JSON reply is read up to maxJSON bytes, a raw body
// (a result envelope, a metrics document) up to maxRaw, and a longer
// reply fails; an error reply is read up to maxError.
const (
	maxJSON  = 16 << 20
	maxRaw   = 64 << 20
	maxError = 4 << 10
)

// send performs one RPC against node and returns the reply body, read
// up to limit bytes: it fires the rpc fault points, applies the
// client's deadline when ctx has none, stamps the epoch, and turns every
// non-2xx reply into a *statusError — its JSON "error" field when it
// has one, the raw body otherwise — after checking a 409 for fencing.
func (c *Client) send(ctx context.Context, node, method, url string, body []byte, limit int64) ([]byte, error) {
	if c.faults != nil {
		for _, point := range [...]string{"rpc", "rpc." + node} {
			if err := c.faults.Fire(point); err != nil {
				return nil, fmt.Errorf("cluster: rpc to %s: %w", node, err)
			}
		}
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	if epoch > 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.noteFenced(resp)
		// The status is the answer; a body cut short only shortens the message.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxError))
		se := &statusError{code: resp.StatusCode, body: string(b)}
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &ae) == nil && ae.Error != "" {
			se.body = ae.Error
		}
		return nil, se
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("cluster: reply from %s exceeds %d bytes", node, limit)
	}
	return b, nil
}

// call is send with a JSON body: in is encoded when non-nil, and the
// reply is decoded into out when non-nil.
func (c *Client) call(ctx context.Context, node, method, url string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	b, err := c.send(ctx, node, method, url, body, maxJSON)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// retriable reports whether an idempotent RPC should be re-attempted:
// transport failures and 5xx/429 are transient; other response codes
// (404 miss, 409 fenced, 4xx misuse) are authoritative.
func retriable(err error) bool {
	code := StatusCode(err)
	return code == 0 || code >= 500 || code == http.StatusTooManyRequests
}

// retry runs an RPC that is safe to repeat (a probe's listing, an
// envelope fetch) under the idempotent schedule: up to tries attempts
// while it fails retriably, with an equal-jitter backoff
// (service.Backoff) between them. ctx bounds the whole schedule; each
// attempt still gets its own deadline inside send.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	c.mu.Lock()
	tries := c.tries
	c.mu.Unlock()
	var err error
	for i := 0; i < tries; i++ {
		if i > 0 {
			c.mu.Lock()
			d := service.Backoff(i-1, c.base, c.max, c.rng)
			c.mu.Unlock()
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
		if err = attempt(); err == nil || !retriable(err) {
			return err
		}
	}
	return err
}

// fetchFirst is the one envelope fetch walk: it asks each candidate in
// order for key's envelope (GET /v1/store/{key}, retried as idempotent).
// The first hit wins; when every candidate answers 404 the key is a
// clean miss (nil, nil); otherwise the first error is returned, so the
// store counts it. A dead candidate is just an error, and the next is
// tried.
func fetchFirst(ctx context.Context, client *Client, key string, cands []Member) ([]byte, error) {
	var firstErr error
	for _, m := range cands {
		var b []byte
		err := client.retry(ctx, func() (err error) {
			b, err = client.send(ctx, m.Name, http.MethodGet, m.URL+"/v1/store/"+key, nil, maxRaw)
			return err
		})
		if err == nil {
			return b, nil
		}
		if firstErr == nil && StatusCode(err) != http.StatusNotFound {
			firstErr = err
		}
	}
	return nil, firstErr
}

// PeerFetcher builds the service.PeerFetchFunc for a worker shard: on a
// local store miss, it walks the shards that carry the key (fetchFirst)
// — the ring owner first, then its successor, which holds the key's
// replica under the coordinator's RF=2 result replication. Shards serve
// GET /v1/store/{key} from local tiers only (never their own peer
// tier), which is what makes the recursion terminate: two shards can
// never chase each other for a key neither has.
//
// self is left out of the candidates (asking yourself is the miss you
// already had). members maps node name → base URL and is the static
// fleet; liveness doesn't matter here.
func PeerFetcher(self string, members map[string]string, client *Client) service.PeerFetchFunc {
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	ring := NewRing(names...)
	return func(ctx context.Context, key string) ([]byte, error) {
		var cands []Member
		for _, name := range ring.Owners(key, 2) {
			if name != self {
				cands = append(cands, Member{Name: name, URL: members[name]})
			}
		}
		return fetchFirst(ctx, client, key, cands)
	}
}
