package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"redi/internal/trace"
)

// layerTally sums per-layer quantities over a pass, keyed by metric name:
// <span>.self_ms (span duration minus its children's), <span>.calls and
// <span>.<attr> (the attribute summed).
type layerTally map[string]float64

// addSpan adds the tree rooted at s under the name given to the root;
// descendants are named prefix+<span name>.
func (lt layerTally) addSpan(name string, s trace.FullSpan, prefix string) {
	self := s.DurUS
	for _, c := range s.Children {
		self -= c.DurUS
		lt.addSpan(prefix+c.Name, c, prefix)
	}
	// Children truncated to whole microseconds can sum past their parent.
	if self < 0 {
		self = 0
	}
	lt[name+".self_ms"] += float64(self) / 1000
	lt[name+".calls"]++
	for _, a := range s.Attrs {
		lt[name+"."+a.Key] += float64(a.Val)
	}
}

// chromeEvent is one complete event of the Chrome trace redi -trace writes.
type chromeEvent struct {
	Name string           `json:"name"`
	TS   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	Args map[string]int64 `json:"args"`
}

// chromeTree rebuilds the span tree of a Chrome trace. redi writes events
// parents first, so each event's parent is the nearest earlier event that
// it starts inside of and ends no later than (with a microsecond of slack,
// as both ends are truncated to microseconds).
func chromeTree(data []byte) (trace.FullSpan, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return trace.FullSpan{}, fmt.Errorf("chrome trace: %w", err)
	}
	type node struct {
		ev   chromeEvent
		kids []*node
	}
	var root *node
	var open []*node
	for _, ev := range doc.TraceEvents {
		n := &node{ev: ev}
		for len(open) > 0 {
			p := open[len(open)-1].ev
			if ev.TS >= p.TS && ev.TS < p.TS+p.Dur && ev.TS+ev.Dur <= p.TS+p.Dur+1 {
				break
			}
			open = open[:len(open)-1]
		}
		switch {
		case len(open) > 0:
			top := open[len(open)-1]
			top.kids = append(top.kids, n)
		case root == nil:
			root = n
		default:
			return trace.FullSpan{}, fmt.Errorf("chrome trace: event %q lies outside the root span", ev.Name)
		}
		open = append(open, n)
	}
	if root == nil {
		return trace.FullSpan{}, fmt.Errorf("chrome trace has no events")
	}
	var full func(n *node) trace.FullSpan
	full = func(n *node) trace.FullSpan {
		f := trace.FullSpan{Name: n.ev.Name, StartUS: n.ev.TS, DurUS: n.ev.Dur}
		keys := make([]string, 0, len(n.ev.Args))
		for k := range n.ev.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.Attrs = append(f.Attrs, trace.DetAttr{Key: k, Val: n.ev.Args[k]})
		}
		for _, k := range n.kids {
			f.Children = append(f.Children, full(k))
		}
		return f
	}
	return full(root), nil
}
