package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"acb/internal/faultinject"
	"acb/internal/service"
)

// submitResponse is the POST /v1/jobs reply: the job snapshot plus
// whether the submission coalesced onto prior work.
type submitResponse struct {
	JobStatus
	Deduped bool `json:"deduped"`
}

// getJSON GETs url and decodes a 2xx body into v (when non-nil).
func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	code, b := getBody(t, url)
	if v != nil && code/100 == 2 {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("decode %q: %v", b, err)
		}
	}
	return code
}

// TestCoordinatorLongPoll: a coordinator serves the job API exactly as
// a single node does (TestServiceLongPoll). GET /v1/jobs/{id}?wait=D
// answers once the job is terminal, or with the live state when D runs
// out first; a malformed or negative wait is a 400 and an unknown job a
// 404. The listing reports the fleet's job concurrency as "workers".
func TestCoordinatorLongPoll(t *testing.T) {
	faults := make(map[string]service.FaultPoints)
	for _, name := range []string{"w1", "w2"} {
		inj := faultinject.New(1)
		inj.Set("worker.slow", faultinject.Rule{Kind: faultinject.Slow, Nth: 1, Delay: 300 * time.Millisecond})
		faults[name] = inj
	}
	nodes := startWorkers(t, []string{"w1", "w2"}, service.SchedulerConfig{Workers: 2}, faults)
	_, ts := startCoordinator(t, nodes, Config{})

	first, code := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"table1","seed":1}`)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	second, _ := postJSON(t, ts.URL+"/v1/jobs", `{"experiment":"table1","seed":2}`)
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+second.ID+"?wait=10ms", &st); code != http.StatusOK || st.State == service.JobDone {
		t.Errorf("short wait on a 300ms job = %d %s, want 200 and not yet done", code, st.State)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"?wait=30s", &st); code != http.StatusOK || st.State != service.JobDone {
		t.Fatalf("long-poll = %d %s, want 200 done", code, st.State)
	}
	if st.Worker == "" {
		t.Errorf("coordinator status names no worker: %+v", st)
	}

	for _, q := range []string{"soon", "-1s", "5"} {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID+"?wait="+q, nil); code != http.StatusBadRequest {
			t.Errorf("wait=%s = %d, want 400", q, code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/c999999?wait=1s", nil); code != http.StatusNotFound {
		t.Errorf("long-poll on an unknown job = %d, want 404", code)
	}
	var list struct {
		Workers int `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || list.Workers != 4 {
		t.Errorf("listing = %d, workers %d, want 200 and 4 (two workers running 2 jobs each)", code, list.Workers)
	}
}

// postJSON POSTs body to url and decodes a 2xx submit reply.
func postJSON(t *testing.T, url, body string) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

// TestJournalStreamConcurrentReaders: two standbys tailing one
// coordinator's journal at once (say, one reconnecting while its old
// stream is still open) each receive every record intact, in order.
// Run under -race: the streams share the journal mirror's records and
// must not write into them.
func TestJournalStreamConcurrentReaders(t *testing.T) {
	journal, _, err := OpenJournal(filepath.Join(t.TempDir(), "cluster.journal"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := service.NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Node: "coord", Workers: []Member{{Name: "w1", URL: "http://127.0.0.1:1"}}, Journal: journal}, store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(coord).Handler())
	defer ts.Close()
	defer coord.Shutdown(context.Background())

	const records = 200
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var started, done sync.WaitGroup
	started.Add(2)
	done.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer done.Done()
			seen, err := func() (int, error) {
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/journal:stream", nil)
				resp, err := http.DefaultClient.Do(req)
				started.Done()
				if err != nil {
					return 0, err
				}
				defer resp.Body.Close()
				sc := bufio.NewScanner(resp.Body)
				n := 0
				for n < records && sc.Scan() {
					var rec struct {
						Op     string `json:"op"`
						Worker string `json:"worker"`
					}
					if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
						return n, fmt.Errorf("line %q: %v", sc.Text(), err)
					}
					if rec.Op != "member" {
						continue // meta and heartbeat lines
					}
					if want := fmt.Sprintf("w%d", n); rec.Worker != want {
						return n, fmt.Errorf("record %d names %q, want %q", n, rec.Worker, want)
					}
					n++
				}
				return n, sc.Err()
			}()
			if err != nil || seen != records {
				t.Errorf("stream read %d of %d records: %v", seen, records, err)
			}
		}()
	}
	started.Wait()
	for i := 0; i < records; i++ {
		if err := journal.Member(fmt.Sprintf("w%d", i), true); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
}
