// Package testbed is the crash harness behind the crash matrix: it runs
// a randomized transaction workload against one checkpoint algorithm,
// injects one fault at a named crash point (internal/faultfs), recovers,
// and checks the recovered database against an oracle of acknowledged
// transactions. The paper's Section 5 model-verification testbed (paced
// load, throttled checkpoint I/O, measured vs analytic) is
// cmd/ckptbench -throttle.
package testbed
