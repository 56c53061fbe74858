package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"fuzzyknn/internal/server"
)

// counters is one reading of the server's own instruments: GET /stats and
// the series of GET /metrics, keyed by their full exposition name
// (`family{label="v"}`).
type counters struct {
	stats  server.StatsResponse
	series map[string]float64
}

func scrape(client *http.Client, url string) (*counters, error) {
	c := &counters{series: make(map[string]float64)}
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&c.stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	resp, err = client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
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
			return nil, fmt.Errorf("GET /metrics: bad sample %q", line)
		}
		c.series[line[:i]] = v
	}
	return c, sc.Err()
}

// delta returns how much a series grew between two readings.
func delta(before, after *counters, name string) float64 {
	return after.series[name] - before.series[name]
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
