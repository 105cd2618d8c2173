package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"clrdse/internal/fleet"
)

// promSnap is one scrape of the service's /metrics exposition: series
// (name plus rendered labels) to value.
type promSnap map[string]float64

// scrape renders the server's metrics registry, exactly as GET
// /metrics serves it, and parses the samples.
func scrape(srvs ...*fleet.Server) []promSnap {
	out := make([]promSnap, len(srvs))
	for i, s := range srvs {
		var buf bytes.Buffer
		s.Registry().Metrics().WritePrometheus(&buf)
		out[i] = parseProm(buf.Bytes())
	}
	return out
}

func parseProm(text []byte) promSnap {
	snap := promSnap{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		snap[line[:i]] = v
	}
	return snap
}

// promDelta is the per-series difference of two scrapes, summed over
// the cluster's nodes.
type promDelta map[string]float64

func deltaOf(before, after []promSnap) promDelta {
	d := promDelta{}
	for i := range after {
		for k, v := range after[i] {
			d[k] += v - before[i][k]
		}
	}
	return d
}

// sum adds every series of the family name (any labels).
func (d promDelta) sum(name string) float64 {
	t := 0.0
	for k, v := range d {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}
