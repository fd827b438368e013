package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/shard"
)

// stack is one self-hosted serving stack: what cmd/strongsimd serves
// (live.NewStore behind api.NewLiveServer), or cmd/strongsim-router's fleet
// (shard.Router over shardCount in-process shard servers), on loopback.
type stack struct {
	store   *live.Store // the authoritative store (the router's, when sharded)
	url     string      // the listener clients talk to
	plan    *shard.Plan // nil unless sharded
	planMS  float64     // shard.BuildPlan
	pushS   float64     // Router.Push
	closers []func()
}

func newStack(g *graph.Graph, sharded bool, cfg api.Config) (*stack, error) {
	s := &stack{store: live.NewStore(g, live.Config{})}
	if !sharded {
		s.url = s.listen(api.NewLiveServer(s.store, cfg))
		return s, nil
	}
	start := time.Now()
	plan, err := shard.BuildPlan(g, shardCount, shardHalo, shard.StrategyBFS)
	if err != nil {
		return nil, err
	}
	s.plan, s.planMS = plan, ms(time.Since(start))
	urls := make([][]string, shardCount)
	for i := range urls {
		empty, err := graph.ParseString("", graph.NewLabels())
		if err != nil {
			s.close()
			return nil, err
		}
		shardCfg := cfg
		shardCfg.Role = api.RoleShard
		urls[i] = []string{s.listen(api.NewLiveServer(live.NewStore(empty, live.Config{}), shardCfg))}
	}
	rt, err := shard.NewRouter(s.store, shard.Config{
		Plan: plan, Shards: urls, ShardTimeout: time.Minute,
		ProbeInterval: time.Hour, // no probe loop is started
		API:           cfg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	start = time.Now()
	if err := rt.Push(context.Background()); err != nil {
		s.close()
		return nil, fmt.Errorf("pushing shards: %w", err)
	}
	s.pushS = time.Since(start).Seconds()
	s.url = s.listen(rt.Handler())
	return s, nil
}

func (s *stack) listen(h http.Handler) string {
	ts := httptest.NewServer(h)
	s.closers = append(s.closers, ts.Close)
	return ts.URL
}

// close stops every listener, last started first.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// newClient returns an SDK client with a connection pool of its own, so
// each load goroutine keeps exactly one connection.
func (s *stack) newClient() (*client.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return client.New(s.url, client.WithHTTPClient(&http.Client{Transport: tr})), tr.CloseIdleConnections
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
