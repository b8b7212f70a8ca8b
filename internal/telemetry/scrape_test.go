package telemetry_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"gompax/internal/driver"
	"gompax/internal/telemetry"
)

// TestScrapeUnderLoad hammers /metrics, /healthz and /statusz while
// full pipeline runs execute concurrently. Run under -race this is the
// proof that the exposition path and every hot-path instrumentation
// site are data-race free and that scraping never observes a torn or
// malformed page.
func TestScrapeUnderLoad(t *testing.T) {
	source, err := os.ReadFile("../../testdata/crossing.mtl")
	if err != nil {
		t.Fatal(err)
	}

	telemetry.SetActive(true)
	defer telemetry.SetActive(false)

	srv := httptest.NewServer(telemetry.Handler(telemetry.Default()))
	defer srv.Close()

	const (
		analysisRuns = 12
		scrapers     = 4
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Load generator: full pipeline runs, so the per-level flushes are
	// live while the scrapers read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < analysisRuns; i++ {
			cfg := driver.Config{
				Source:   string(source),
				Property: "(x > 0) -> [y = 0, y > z)",
				Seed:     int64(i),
			}
			if _, err := driver.Check(cfg); err != nil {
				t.Errorf("driver.Check run %d: %v", i, err)
				return
			}
		}
	}()

	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/healthz", "/statusz"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("read %s: %v", path, err)
						return
					}
					if path == "/metrics" {
						checkMetricsPage(t, string(body))
					}
				}
			}
		}()
	}

	wg.Wait()

	// After the load ends the counters must reflect all runs.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	for _, want := range []string{
		`gompax_predict_analyses_total{mode="offline"}`,
		"gompax_lattice_cuts_total",
		"gompax_monitor_trace_checks_total",
		"gompax_instrument_runs_total",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("final /metrics missing %q", want)
		}
	}
}

// checkMetricsPage sanity-checks the structure of a scraped page: no
// interleaved half-lines, every sample line parseable.
func checkMetricsPage(t *testing.T, page string) {
	t.Helper()
	if page == "" {
		return
	}
	if !strings.HasSuffix(page, "\n") {
		t.Error("metrics page does not end in newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value — the value field must be present.
		if i := strings.LastIndexByte(line, ' '); i < 0 || i == len(line)-1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}
