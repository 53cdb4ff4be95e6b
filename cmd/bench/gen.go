package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/uncertainty"
	"repro/internal/workload"
)

// streamSeed derives the seed of one generated input. Input i of a
// client is a pure function of (seed, workload, client, i): the
// coordinates are folded through SplitMix64 steps, so neighbouring
// coordinates give unrelated streams and no draw depends on how many
// inputs were generated before it.
func streamSeed(seed uint64, workloadName string, client, i int) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a over the name
	for _, c := range []byte(workloadName) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	for _, v := range []uint64{seed, h, uint64(client), uint64(i)} {
		h = rng.New(h ^ v).Uint64()
	}
	return h
}

// warmClient offsets the client coordinate of warm-up inputs so the
// measured window never meets an input the warm-up already put in the
// optimum memo.
const warmClient = 1 << 20

// siblingSeed is the stream serve.solve_us is measured on: same
// shapes, other values, so the shared memo is not pre-warmed.
func siblingSeed(seed uint64) uint64 { return seed + 1 }

// uniformInstance draws a fresh uniform instance with actual times
// perturbed log-uniformly within the alpha band, the paper's model.
func uniformInstance(s uint64, n, m int) (*task.Instance, error) {
	in, err := workload.New(workload.Spec{Name: "uniform", N: n, M: m, Alpha: 1.5, Seed: s})
	if err != nil {
		return nil, err
	}
	uncertainty.Uniform{}.Perturb(in, nil, rng.New(s^0x9e3779b97f4a7c15))
	return in, nil
}

// poissonArrivals draws n arrival times at rate m/4.
func poissonArrivals(s uint64, n, m int) ([]float64, error) {
	return workload.Arrivals(n, workload.ArrivalSpec{
		Process: "poisson", Rate: float64(m) / 4, Seed: s ^ 0xbf58476d1ce4e5b9,
	})
}

// The HTTP wire format, spelled out here so the harness keeps working
// when the serving packages move their own request types.
type wireInstance struct {
	M         int       `json:"m"`
	Alpha     float64   `json:"alpha"`
	Estimates []float64 `json:"estimates"`
	Actuals   []float64 `json:"actuals"`
}

type wireItem struct {
	Algorithm string       `json:"algorithm"`
	Instance  wireInstance `json:"instance"`
}

type wireBatch struct {
	Requests []wireItem `json:"requests"`
}

type wireResponse struct {
	N        int     `json:"n"`
	M        int     `json:"m"`
	Makespan float64 `json:"makespan"`
	BoundOK  *bool   `json:"bound_ok"`
}

type wireResult struct {
	Index    int           `json:"index"`
	Response *wireResponse `json:"response"`
	Error    string        `json:"error"`
}

type wireBatchResponse struct {
	Results []wireResult `json:"results"`
}

// itemShape says what one schedule item of a serving workload looks
// like: n drawn uniformly from [nLo, nHi], the algorithm from algos.
type itemShape struct {
	nLo, nHi, m int
	algos       []string
}

// request is one generated HTTP request and what is needed to check
// its answer.
type request struct {
	stream bool // POST /v1/stream (NDJSON) instead of /v1/batch
	body   []byte
	items  []wireItem
}

// genRequest renders request i of a client. Batch bodies are one JSON
// object; stream bodies are one item a line.
func genRequest(s uint64, shape itemShape, items int, stream bool) (*request, error) {
	src := rng.New(s)
	req := &request{stream: stream, items: make([]wireItem, items)}
	for k := range req.items {
		n := shape.nLo + src.Intn(shape.nHi-shape.nLo+1)
		in, err := uniformInstance(src.Uint64(), n, shape.m)
		if err != nil {
			return nil, err
		}
		req.items[k] = wireItem{
			Algorithm: shape.algos[src.Intn(len(shape.algos))],
			Instance:  wireInstance{M: in.M, Alpha: in.Alpha, Estimates: in.Estimates(), Actuals: in.Actuals()},
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if stream {
		for k := range req.items {
			if err := enc.Encode(&req.items[k]); err != nil {
				return nil, fmt.Errorf("encode stream item: %w", err)
			}
		}
	} else if err := enc.Encode(wireBatch{Requests: req.items}); err != nil {
		return nil, fmt.Errorf("encode batch: %w", err)
	}
	req.body = buf.Bytes()
	return req, nil
}

// instance rebuilds the task.Instance of one item, for the harness's
// own re-solve of a sampled answer.
func (it *wireItem) instance() (*task.Instance, error) {
	return task.New(it.Instance.M, it.Instance.Alpha, it.Instance.Estimates, it.Instance.Actuals)
}
