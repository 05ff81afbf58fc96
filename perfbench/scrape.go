package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"netenergy/internal/obs"
)

// scrape is one Prometheus text exposition, parsed by the repository's own
// consumer (obs.ParseText): sample name with labels -> value.
type scrape map[string]float64

// scrapeRegistry renders a registry exactly as the /metrics endpoint does
// and parses the text back, so the benchmark reads the exported families
// rather than the server's internals.
func scrapeRegistry(reg *obs.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, fmt.Errorf("render metrics: %w", err)
	}
	m, err := obs.ParseText(&buf)
	if err != nil {
		return nil, fmt.Errorf("parse metrics: %w", err)
	}
	return scrape(m), nil
}

// mean returns a histogram family's _sum/_count (0 when empty).
func (s scrape) mean(family string) float64 {
	n := s[family+"_count"]
	if n == 0 {
		return 0
	}
	return s[family+"_sum"] / n
}

// quantile estimates the q-quantile of a histogram family from its
// cumulative buckets, interpolating linearly inside the bucket that holds
// the rank (the estimate Prometheus' histogram_quantile makes). The +Inf
// bucket reports its lower bound.
func (s scrape) quantile(family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range s {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = f
		}
		bs = append(bs, bucket{bound, v})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}
