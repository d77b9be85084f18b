package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"clash/internal/core"
	"clash/internal/cost"
	"clash/internal/query"
	"clash/internal/stats"
	"clash/internal/tuple"
)

// ControllerConfig wires the adaptive re-optimization loop (Fig. 5): the
// statistics of epoch i are evaluated at the start of epoch i+1 and the
// resulting configuration takes effect at epoch i+2.
type ControllerConfig struct {
	Optimizer *core.Optimizer
	// Collector gathers per-epoch observations; the controller registers
	// itself as the engine's ingest observer.
	Collector *stats.Collector
	// Shared compiles with store/prefix sharing (CMQO/SS); false gives
	// independent per-query topologies.
	Shared bool
	// Static disables re-optimization: the initial plan stays installed
	// (the paper's "S" baseline in Fig. 8).
	Static bool
	// OnDecision, when set, observes every installed configuration
	// change: the active plans and the plans warming up MIR stores.
	OnDecision func(epoch int64, plans, warming []*core.Plan)
	// IncrementalReopt carries optimizer state across re-optimization
	// steps (core.Reopt): the previous plan seeds branch-and-bound, MIR
	// containment verdicts and candidate groups are memoized, unchanged
	// ILP components are answered from cache, and node evaluation runs
	// on a bounded worker pool — re-planning cost becomes proportional
	// to the churn delta, not the installed query count.
	IncrementalReopt bool
	// MeasuredCosts calibrates the optimizer's cost coefficients from
	// the engine's runtime counters (requires the engine's
	// Config.MeasuredCosts): at each epoch boundary the measured
	// insert/prune cost per tuple, normalized to the probe unit, is
	// blended into the cost model by EWMA and clamped into [1/8, 8] so
	// one noisy window cannot capsize plan choice. Shapes never executed
	// keep the analytic constant 1.
	MeasuredCosts bool
}

// blendAlpha weighs a sealed epoch's fresh estimates (and measured cost
// ratios) against history: an even EWMA.
const blendAlpha = 0.5

// Controller implements the epoch-based adaptive configuration of
// Sec. VI: statistics gathering, decision making, and ruleset
// propagation, plus query arrival and expiry (Sec. VI-B).
type Controller struct {
	cfg ControllerConfig
	eng *Engine

	mu         sync.Mutex
	queries    map[string]*query.Query
	order      []string
	est        *stats.Estimates
	lastSealed int64 // highest epoch whose statistics were evaluated
	reoptims   int
	lastPlan   *core.Plan
	lastSig    string
	liveSince  map[string]int64 // composite MIR key -> first epoch fed
	startEpoch int64
	reopt      *core.Reopt       // nil unless IncrementalReopt
	coef       cost.Coefficients // calibrated cost coefficients (MeasuredCosts)
	preds      []query.Predicate // allPredsLocked's result for the installed query set; nil when stale
}

// NewController creates a controller over the engine, optimizes the
// initial query set with the initial estimates, and installs the first
// configuration at epoch 0.
func NewController(eng *Engine, cfg ControllerConfig, queries []*query.Query, initial *stats.Estimates) (*Controller, error) {
	c := &Controller{
		cfg:        cfg,
		eng:        eng,
		queries:    map[string]*query.Query{},
		est:        initial.Clone(),
		lastSealed: -1,
		liveSince:  map[string]int64{},
		coef:       cost.DefaultCoefficients,
	}
	if cfg.IncrementalReopt {
		c.reopt = core.NewReopt()
	}
	for _, q := range queries {
		c.queries[q.Name] = q
		c.order = append(c.order, q.Name)
	}
	if err := c.reoptimize(0); err != nil {
		return nil, err
	}
	return c, nil
}

// Plan returns the most recently installed plan.
func (c *Controller) Plan() *core.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPlan
}

// Reoptimizations returns how many configuration changes were installed.
func (c *Controller) Reoptimizations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reoptims
}

// calibrateLocked blends the engine's measured per-tuple costs into the
// optimizer coefficients. Probe is the normalization unit (always 1);
// insert and prune move by EWMA toward their measured ratio, clamped
// into [1/8, 8]. Shapes never executed measure zero and leave their
// coefficient untouched (analytic fallback).
func (c *Controller) calibrateLocked() {
	obs := c.eng.CostObservations()
	p := obs.ProbePerTuple()
	if p <= 0 {
		return
	}
	c.coef.Probe = 1
	c.coef.Insert = cost.BlendCoefficient(c.coef.Insert, obs.InsertPerTuple()/p, blendAlpha, 0.125, 8)
	c.coef.Prune = cost.BlendCoefficient(c.coef.Prune, obs.PrunePerTuple()/p, blendAlpha, 0.125, 8)
}

// CostCoefficients returns the currently calibrated coefficients (the
// analytic defaults until measurements arrive).
func (c *Controller) CostCoefficients() cost.Coefficients {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coef
}

// ReoptStats reports what the incremental re-optimization state did over
// the controller's lifetime: cache counters, and per joint solve how the
// incumbent repair went, which warm-start variant seeded the search and
// how many per-query child optimizations ran. The zero value when
// IncrementalReopt is off.
func (c *Controller) ReoptStats() core.ReoptStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reopt == nil {
		return core.ReoptStats{}
	}
	return c.reopt.Stats()
}

// Estimates returns the current blended estimates (read-only).
func (c *Controller) Estimates() *stats.Estimates {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.est
}

// Tick advances the adaptive loop: when the engine's watermark has
// crossed into a new epoch, the previous epoch's statistics are sealed
// and evaluated, and — unless Static — a new configuration is compiled
// for epoch+2 (Fig. 5). Tick also prunes expired state. Call it from the
// source driver after each batch; it is cheap when no boundary was
// crossed.
func (c *Controller) Tick() error {
	if c.eng.cfg.EpochLength <= 0 {
		return nil
	}
	cur := c.eng.Epoch(c.eng.Watermark())
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur <= c.lastSealed {
		return nil
	}
	// Seal statistics for the epoch(s) that just ended.
	preds := c.allPredsLocked()
	fresh := c.cfg.Collector.Seal(c.eng.cfg.EpochLength, preds)
	c.est = stats.Blend(c.est, fresh, blendAlpha)
	c.lastSealed = cur

	// Calibrate the cost model from the engine's measured per-tuple work.
	if c.cfg.MeasuredCosts {
		c.calibrateLocked()
	}

	// Window expiry.
	maxW := c.maxWindowLocked()
	if maxW > 0 {
		c.eng.PruneBefore(c.eng.Watermark() - tuple.Time(maxW))
	}

	if c.cfg.Static {
		return nil
	}
	return c.reoptimizeLocked(cur + 2)
}

// AddQuery registers a new continuous query. Existing stores are reused
// (the bootstrap benefit of Sec. VI-B): the new configuration is
// installed at the next epoch rather than waiting a full statistics
// cycle.
func (c *Controller) AddQuery(q *query.Query) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.queries[q.Name]; dup {
		return fmt.Errorf("runtime: query %q already installed", q.Name)
	}
	c.queries[q.Name] = q
	c.order = append(c.order, q.Name)
	c.preds = nil
	return c.reoptimizeLocked(c.nextEpochLocked())
}

// RemoveQuery deregisters a query; stores whose reference count drops to
// zero disappear from the next configuration and their state expires
// with its epochs.
func (c *Controller) RemoveQuery(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.queries[name]; !ok {
		return fmt.Errorf("runtime: query %q not installed", name)
	}
	delete(c.queries, name)
	kept := c.order[:0]
	for _, n := range c.order {
		if n != name {
			kept = append(kept, n)
		}
	}
	c.order = kept
	c.preds = nil
	return c.reoptimizeLocked(c.nextEpochLocked())
}

func (c *Controller) nextEpochLocked() int64 {
	if c.eng.cfg.EpochLength <= 0 {
		return 0
	}
	return c.eng.Epoch(c.eng.Watermark()) + 1
}

func (c *Controller) reoptimize(epoch int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reoptimizeLocked(epoch)
}

// reoptimizeLocked re-plans the current query set for the target epoch.
// Newly desirable MIR stores go through a warm-up stage: their feeding
// probe orders are installed immediately, but probe orders only use the
// store once it has been fed for a full window (Fig. 6: only after a
// window the state is complete). Until then a restricted plan answers
// the queries exactly.
func (c *Controller) reoptimizeLocked(epoch int64) error {
	qs := make([]*query.Query, 0, len(c.order))
	for _, n := range c.order {
		qs = append(qs, c.queries[n])
	}

	if c.reopt != nil {
		c.reopt.Advance()
	}
	optimize := func(elig func(string) bool) ([]*core.Plan, error) {
		opts := c.cfg.Optimizer.Options()
		opts.MIREligible = elig
		if c.reopt != nil {
			opts.Reopt = c.reopt
		}
		if c.cfg.MeasuredCosts {
			coef := c.coef
			opts.CostCoefficients = &coef
		}
		o := core.NewOptimizer(opts)
		if c.cfg.Shared {
			p, err := o.Optimize(qs, c.est)
			if err != nil {
				return nil, err
			}
			return []*core.Plan{p}, nil
		}
		return o.OptimizeIndividually(qs, c.est)
	}

	// Up to two joint solves per step on the one Reopt. They run under
	// different MIR eligibility, and core keeps an incumbent per regime, so
	// each is warm-started from the previous step's solve of its own kind.
	plans, err := optimize(nil) // unrestricted: what we would like to run
	if err != nil {
		return err
	}

	initial := c.reoptims == 0
	mature := func(key string) bool {
		if initial || c.eng.cfg.EpochLength <= 0 {
			// At system start every store's content is trivially
			// complete (there is no history to miss).
			return true
		}
		l, ok := c.liveSince[key]
		if !ok {
			return false
		}
		return l == c.startEpoch || l+c.warmupEpochs() <= epoch
	}

	immature := map[string]bool{}
	for _, p := range plans {
		for _, key := range p.UsedStores() {
			if isComposite(key) && !mature(key) {
				immature[key] = true
			}
		}
	}

	var warming []*core.Plan
	if len(immature) > 0 && c.cfg.Shared {
		// Keep the exact restricted plan; warm the wanted stores on the
		// side by installing their feeding orders only.
		warmPlan := warmingPlan(plans, immature, mature)
		plans, err = optimize(mature)
		if err != nil {
			return err
		}
		if warmPlan != nil {
			warming = []*core.Plan{warmPlan}
		}
	}
	if len(plans) > 0 {
		c.lastPlan = plans[len(plans)-1]
	}

	// Identical decisions need no rewiring: the previous configuration
	// stays in effect and the workers see no churn.
	sig := planSignature(plans, warming)
	if c.reoptims > 0 && sig == c.lastSig {
		return nil
	}

	topo, err := core.Compile(append(append([]*core.Plan{}, plans...), warming...),
		core.CompileOptions{
			Epoch:       epoch,
			Shared:      c.cfg.Shared,
			Parallelism: c.cfg.Optimizer.Options().Parallelism(),
		})
	if err != nil {
		return err
	}
	if err := c.eng.Install(topo, epoch); err != nil {
		return err
	}
	// State migration on rewiring: stores that just left every installed
	// configuration (query expiry, plan changes) release their
	// materialized state — unreachable by any probe, it would only burn
	// the state budget. Skipped on the very first install (nothing can
	// be stale yet).
	if c.reoptims > 0 {
		c.eng.RetireAbsentStores()
	}
	c.lastSig = sig
	if c.cfg.OnDecision != nil {
		c.cfg.OnDecision(epoch, plans, warming)
	}

	// Liveness bookkeeping: composite stores present in the installed
	// config keep (or gain) their live-since epoch; dropped stores lose
	// it, so a later re-introduction warms up again.
	present := map[string]bool{}
	for _, s := range topo.Stores {
		if !s.Base() {
			present[s.MIRKey] = true
		}
	}
	for key := range c.liveSince {
		if !present[key] {
			delete(c.liveSince, key)
		}
	}
	for key := range present {
		if _, ok := c.liveSince[key]; !ok {
			if initial {
				c.liveSince[key] = c.startEpoch
			} else {
				c.liveSince[key] = epoch
			}
		}
	}

	c.reoptims++
	return nil
}

// planSignature canonically renders a decision for change detection.
func planSignature(plans, warming []*core.Plan) string {
	var b strings.Builder
	for _, p := range plans {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	b.WriteString("--warming--\n")
	for _, p := range warming {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// warmupEpochs is the number of epochs a new MIR store must be fed
// before its content covers a full window.
func (c *Controller) warmupEpochs() int64 {
	el := c.eng.cfg.EpochLength
	if el <= 0 {
		return 0
	}
	w := c.maxWindowLocked()
	if w <= 0 {
		return 1 << 30 // unbounded windows: new MIRs never complete
	}
	return int64((w+el-1)/el) + 1
}

func isComposite(mirKey string) bool {
	for i := 0; i < len(mirKey); i++ {
		if mirKey[i] == '+' {
			return true
		}
	}
	return false
}

// warmingPlan extracts, from the unrestricted plans, the feeding orders
// of exactly the immature stores — feeds of mature stores run in the
// restricted plan already, and duplicating them (possibly with different
// partition decorations) would double-insert pairs. A feed is only
// usable when it probes mature state itself; layered warm-up converges
// over successive epochs.
func warmingPlan(plans []*core.Plan, immature map[string]bool, mature func(string) bool) *core.Plan {
	out := &core.Plan{Partitions: map[string]query.Attr{}}
	for _, p := range plans {
		for _, d := range p.Selected {
			if d.ForMIR == "" || !immature[d.ForMIR] {
				continue
			}
			usable := true
			for i, e := range d.Elems {
				if i > 0 && !e.MIR.IsBase() && !mature(e.MIR.Key()) {
					usable = false
					break
				}
			}
			if !usable {
				continue
			}
			out.Selected = append(out.Selected, d)
		}
		for k, v := range p.Partitions {
			out.Partitions[k] = v
		}
	}
	if len(out.Selected) == 0 {
		return nil
	}
	return out
}

// allPredsLocked lists the installed queries' distinct predicates in
// query-name order, computed once per query set.
func (c *Controller) allPredsLocked() []query.Predicate {
	if c.preds != nil {
		return c.preds
	}
	preds := []query.Predicate{}
	seen := map[string]bool{}
	names := append([]string(nil), c.order...)
	sort.Strings(names)
	for _, n := range names {
		for _, p := range c.queries[n].Preds {
			if k := p.String(); !seen[k] {
				seen[k] = true
				preds = append(preds, p)
			}
		}
	}
	c.preds = preds
	return preds
}

func (c *Controller) maxWindowLocked() time.Duration {
	cat := c.eng.cfg.Catalog
	if cat == nil {
		return c.eng.cfg.DefaultWindow
	}
	max := time.Duration(0)
	for _, rel := range cat.Names() {
		if w := cat.Window(rel, c.eng.cfg.DefaultWindow); w > max {
			max = w
		}
	}
	return max
}
