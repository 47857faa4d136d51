package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry in the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// every span is an "X" complete event carrying ts+dur. Timestamps are
// microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// chromeTrace is the top-level trace-event JSON object form.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the flight-recorder contents — the completed
// spans — as Chrome trace-event JSON, loadable in chrome://tracing or
// Perfetto. Each span tree is laid out on its own track (tid = the tree
// root's span ID) so parent/child spans nest by time containment.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	// Resolve each span's tree root for track assignment. Parent links
	// always point at earlier tickets, so one pass over the dump (which is
	// in begin order) resolves every chain.
	root := make(map[SpanID]SpanID, len(spans))
	for _, s := range spans {
		id := s.ID()
		if s.Parent == SpanNone {
			root[id] = id
		} else if r, ok := root[s.Parent]; ok {
			root[id] = r
		} else {
			// Parent fell off the ring: treat this span as its own root.
			root[id] = id
		}
	}
	doc := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(spans)),
		DisplayTimeUnit: "ns",
	}
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Kind.String(),
			Cat:  "mmdb",
			Ph:   "X",
			Ts:   float64(s.Begin) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  1,
			Tid:  uint64(root[s.ID()]),
			Args: map[string]uint64{
				"span":   uint64(s.ID()),
				"parent": uint64(s.Parent),
				"a":      s.A,
				"b":      s.B,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
