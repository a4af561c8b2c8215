package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"memsci/internal/core"
	"memsci/internal/serve"
)

// clients is the closed loop's concurrency bound: at most this many
// synchronous clients, and the connection bound of the HTTP client. It
// equals the reference machine's core count (nproc = 2).
const clients = 2

// requestTimeout bounds one HTTP exchange; it sits just above memserve's
// default 60-second solve deadline so the server's 504 arrives first.
const requestTimeout = 65 * time.Second

// memserveConfig is the serve.Config that cmd/memserve builds from its
// default flags. The only difference is the log destination: the text
// handler formats every line as memserve does but writes to io.Discard
// instead of stderr.
func memserveConfig() serve.Config {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	return serve.Config{
		MaxBodyBytes:   8 << 20,
		DefaultTimeout: 60 * time.Second,
		MaxTimeout:     5 * time.Minute,
		Cluster:        core.DefaultClusterConfig(),
		RefineCluster:  core.ReducedSliceConfig(serve.DefaultRefineBits),
		Seed:           serverSeed,
		Cache: serve.CacheConfig{
			MaxClusters:       serve.DefaultMaxClusters,
			PoolSize:          serve.DefaultPoolSize,
			EngineParallelism: 1,
		},
		Logger:        logger,
		TraceRingSize: 64,
		QueueDepth:    serve.DefaultQueueDepth,
		MaxQueueAge:   serve.DefaultMaxQueueAge,
		JobCapacity:   serve.DefaultJobCapacity,
		JobTTL:        10 * time.Minute,
		BatchMax:      serve.DefaultBatchMax,
		DrainGrace:    30 * time.Second,
	}
}

// serverSeed is memserve's default -seed, the device-error seed base of
// programmed engines; the replay programs its engines with it too.
const serverSeed = 1

// instance is one memserve server on a loopback listener plus the HTTP
// client that drives it.
type instance struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer starts memserve in this process on 127.0.0.1 with an
// ephemeral port.
func startServer() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(memserveConfig())
	in := &instance{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// close shuts the listener, waits for the serve loop to return, and stops
// the server's job workers.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.client.CloseIdleConnections()
	in.srv.Close()
	return err
}

// exchange sends one request whose body is the concatenation of parts
// (none for a GET) and reads the whole response body.
func (in *instance) exchange(method, path string, parts ...[]byte) (int, []byte, error) {
	var rd io.Reader
	var size int64
	if len(parts) > 0 {
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = bytes.NewReader(p)
			size += int64(len(p))
		}
		rd = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, in.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if rd != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// cacheCounters are the direct engine cache's counters from GET /metrics.
type cacheCounters struct {
	hits, misses, evictions, programmings float64
}

func (c cacheCounters) sub(o cacheCounters) cacheCounters {
	return cacheCounters{c.hits - o.hits, c.misses - o.misses, c.evictions - o.evictions, c.programmings - o.programmings}
}

// scrapeCache reads the cache counters from the Prometheus text at
// GET /metrics.
func (in *instance) scrapeCache() (cacheCounters, error) {
	status, data, err := in.exchange(http.MethodGet, "/metrics")
	if err != nil {
		return cacheCounters{}, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != http.StatusOK {
		return cacheCounters{}, fmt.Errorf("GET /metrics: status %d", status)
	}
	var c cacheCounters
	fields := map[string]*float64{
		"memserve_cache_hits_total":         &c.hits,
		"memserve_cache_misses_total":       &c.misses,
		"memserve_cache_evictions_total":    &c.evictions,
		"memserve_cache_programmings_total": &c.programmings,
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if dst := fields[name]; ok && dst != nil {
			if *dst, err = strconv.ParseFloat(strings.TrimSpace(val), 64); err != nil {
				return cacheCounters{}, fmt.Errorf("GET /metrics: %s: %w", name, err)
			}
			delete(fields, name)
		}
	}
	if len(fields) > 0 {
		return cacheCounters{}, fmt.Errorf("GET /metrics: %d cache counters missing", len(fields))
	}
	return c, nil
}
