package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/core"
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
	// change: the active plans and the plans warming up MIR stores. It
	// runs at the install barrier, on the goroutine that reached it
	// (Ingest or Drain), and must not call back into Drain.
	OnDecision func(epoch int64, plans, warming []*core.Plan)
	// IncrementalReopt carries optimizer state across re-optimization
	// steps (core.Reopt): the MIR memo, the candidate-structure cache
	// and the incumbent per eligibility regime, which seeds
	// branch-and-bound. The ILP is solved afresh every step.
	IncrementalReopt bool
}

// blendAlpha weighs a sealed epoch's fresh estimates against history:
// an even EWMA.
const blendAlpha = 0.5

// Controller implements the epoch-based adaptive configuration of
// Sec. VI: statistics gathering, decision making, and ruleset
// propagation, plus query arrival and expiry (Sec. VI-B).
//
// Decisions are solved beside the stream (DESIGN.md §14): a trigger —
// Tick at an epoch boundary, AddQuery, RemoveQuery — registers its
// change, snapshots what the solve reads and hands it to the engine's
// install barrier (barrier.go), which runs the solves one at a time in
// trigger order and installs each result before the engine routes the
// first tuple of its target epoch.
type Controller struct {
	cfg ControllerConfig
	eng *Engine

	// Trigger side: the ingesting goroutine's, under mu.
	mu         sync.Mutex
	queries    map[string]*query.Query
	order      []string
	est        *stats.Estimates
	lastSealed int64             // highest epoch whose statistics were evaluated
	preds      []query.Predicate // allPredsLocked's result for the installed query set; nil when stale

	// Solver side: owned by the solve running at the time. Solves run
	// one at a time in trigger order, the initial one inline in
	// NewController and the rest on the barrier's goroutines
	// (barrier.go); each holds smu throughout, so this state changes
	// hands under a lock as well as by the barrier's order.
	smu         sync.Mutex
	reoptims    int              // decisions solved that changed the configuration
	lastPlans   []*core.Plan     // the last such decision: its plans
	lastWarming []*core.Plan     // and its warming plans
	liveSince   map[string]int64 // composite MIR key -> first epoch fed
	startEpoch  int64
	reopt       *core.Reopt   // nil unless IncrementalReopt
	compiler    core.Compiler // compiles each decision from the last one's topology

	// Install side: written at the barrier.
	lastPlan atomic.Pointer[core.Plan]
	installs atomic.Int64
}

// solveInput is what a solve reads, snapshotted at its trigger.
type solveInput struct {
	queries []*query.Query // in registration order
	est     *stats.Estimates
	epoch   int64 // target: the configuration takes effect here
}

// NewController creates a controller over the engine, optimizes the
// initial query set with the initial estimates, and installs the first
// configuration at epoch 0 before it returns.
func NewController(eng *Engine, cfg ControllerConfig, queries []*query.Query, initial *stats.Estimates) (*Controller, error) {
	c := &Controller{
		cfg:        cfg,
		eng:        eng,
		queries:    map[string]*query.Query{},
		est:        initial.Clone(),
		lastSealed: -1,
		liveSince:  map[string]int64{},
	}
	if cfg.IncrementalReopt {
		c.reopt = core.NewReopt()
	}
	for _, q := range queries {
		c.queries[q.Name] = q
		c.order = append(c.order, q.Name)
	}
	if err := c.solve(c.snapshotLocked(0))(); err != nil {
		return nil, err
	}
	return c, nil
}

// Plan returns the most recently installed plan. A decision still being
// solved, or solved but not yet at its barrier, is not reflected; Drain
// the engine first to read the plan of every trigger so far.
func (c *Controller) Plan() *core.Plan { return c.lastPlan.Load() }

// Reoptimizations returns how many configuration changes were
// installed, the initial one included; like Plan, it counts a decision
// once it is installed, not when it is triggered.
func (c *Controller) Reoptimizations() int { return int(c.installs.Load()) }

// Estimates returns the current blended estimates (read-only).
func (c *Controller) Estimates() *stats.Estimates {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.est
}

// Tick advances the adaptive loop: when the engine's watermark has
// crossed into a new epoch, the previous epoch's statistics are sealed
// and evaluated, and — unless Static — a new configuration is solved
// beside the stream for epoch+2 (Fig. 5). Tick also prunes expired
// state. Call it from the source driver after each batch; it is cheap
// when no boundary was crossed, and it never waits for a solve.
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
	// Seal statistics for the epoch(s) that just ended, once the
	// Observer has seen every tuple ingested so far.
	c.eng.flushObserver()
	preds := c.allPredsLocked()
	fresh := c.cfg.Collector.Seal(c.eng.cfg.EpochLength, preds)
	c.est = stats.Blend(c.est, fresh, blendAlpha)
	c.lastSealed = cur

	// Window expiry.
	maxW := c.maxWindow()
	if maxW > 0 {
		c.eng.PruneBefore(c.eng.Watermark() - tuple.Time(maxW))
	}

	if c.cfg.Static {
		return nil
	}
	c.triggerLocked(cur + 2)
	return nil
}

// AddQuery registers a new continuous query and returns once it is
// registered. Existing stores are reused (the bootstrap benefit of
// Sec. VI-B): the new configuration is solved beside the stream and
// installed at the next epoch rather than waiting a full statistics
// cycle. Only a duplicate name is reported here; a solve that fails
// fails the engine at its barrier (Engine.Failure).
func (c *Controller) AddQuery(q *query.Query) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.queries[q.Name]; dup {
		return fmt.Errorf("runtime: query %q already installed", q.Name)
	}
	c.queries[q.Name] = q
	c.order = append(c.order, q.Name)
	c.preds = nil
	c.triggerLocked(c.nextEpochLocked())
	return nil
}

// RemoveQuery deregisters a query and returns once it is deregistered;
// stores whose reference count drops to zero disappear from the next
// configuration, solved beside the stream like AddQuery's, and their
// state expires with its epochs. Only an unknown name is reported here.
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
	c.triggerLocked(c.nextEpochLocked())
	return nil
}

func (c *Controller) nextEpochLocked() int64 {
	if c.eng.cfg.EpochLength <= 0 {
		return 0
	}
	return c.eng.Epoch(c.eng.Watermark()) + 1
}

// snapshotLocked captures what a solve for the target epoch reads: the
// query list in registration order, the estimates (Blend always returns
// a fresh object, so the pointer is the snapshot).
func (c *Controller) snapshotLocked(epoch int64) solveInput {
	qs := make([]*query.Query, 0, len(c.order))
	for _, n := range c.order {
		qs = append(qs, c.queries[n])
	}
	return solveInput{queries: qs, est: c.est, epoch: epoch}
}

// triggerLocked hands a re-optimization for the target epoch to the
// engine's install barrier.
func (c *Controller) triggerLocked(epoch int64) {
	in := c.snapshotLocked(epoch)
	c.eng.schedule(epoch, func() func() error { return c.solve(in) })
}

// solve re-plans the snapshotted query set for its target epoch and
// returns the step that installs the result: Install (which retires the
// stores no installed configuration names any more), then OnDecision.
// It runs beside the stream (the initial solve excepted), one solve at a
// time in trigger order, and never takes mu.
//
// Newly desirable MIR stores go through a warm-up stage: their feeding
// probe orders are installed immediately, but probe orders only use the
// store once it has been fed for a full window (Fig. 6: only after a
// window the state is complete). Until then a restricted plan answers
// the queries exactly.
func (c *Controller) solve(in solveInput) (install func() error) {
	c.smu.Lock()
	defer c.smu.Unlock()
	fail := func(err error) func() error { return func() error { return err } }
	epoch := in.epoch
	began := time.Now()

	if c.reopt != nil {
		c.reopt.Advance()
	}
	optimize := func(elig func(string) bool) ([]*core.Plan, error) {
		opts := c.cfg.Optimizer.Options()
		opts.MIREligible = elig
		if c.reopt != nil {
			opts.Reopt = c.reopt
		}
		o := core.NewOptimizer(opts)
		if c.cfg.Shared {
			p, err := o.Optimize(in.queries, in.est)
			if err != nil {
				return nil, err
			}
			return []*core.Plan{p}, nil
		}
		return o.OptimizeIndividually(in.queries, in.est)
	}

	// Up to two joint solves per step on the one Reopt. They run under
	// different MIR eligibility, and core keeps an incumbent per regime, so
	// each is warm-started from the previous step's solve of its own kind.
	plans, err := optimize(nil) // unrestricted: what we would like to run
	if err != nil {
		return fail(err)
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
			return fail(err)
		}
		if warmPlan != nil {
			warming = []*core.Plan{warmPlan}
		}
	}
	var last *core.Plan
	if len(plans) > 0 {
		last = plans[len(plans)-1]
	}
	publish := func() {
		if last != nil {
			c.lastPlan.Store(last)
		}
	}

	// Identical decisions need no rewiring: the previous configuration
	// stays in effect and the workers see no churn.
	if c.reoptims > 0 && samePlans(plans, c.lastPlans) && samePlans(warming, c.lastWarming) {
		return func() error { publish(); return nil }
	}

	solved := time.Now()
	topo, err := c.compiler.Compile(append(append([]*core.Plan{}, plans...), warming...),
		core.CompileOptions{
			Epoch:       epoch,
			Shared:      c.cfg.Shared,
			Parallelism: c.cfg.Optimizer.Options().Parallelism(),
		})
	if err != nil {
		return fail(err)
	}
	compiled := time.Now()
	c.lastPlans, c.lastWarming = plans, warming

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

	return func() error {
		publish()
		t := time.Now()
		if err := c.eng.Install(topo, epoch); err != nil {
			return err
		}
		if !initial {
			m := c.eng.metrics
			m.steps.Add(1)
			m.stepSolve.Add(int64(solved.Sub(began)))
			m.stepCompile.Add(int64(compiled.Sub(solved)))
			m.stepInstall.Add(int64(time.Since(t)))
		}
		if c.cfg.OnDecision != nil {
			c.cfg.OnDecision(epoch, plans, warming)
		}
		c.installs.Add(1)
		return nil
	}
}

// samePlans reports whether two decisions' plan lists are the same,
// plan by plan (core.Plan.SameAs).
func samePlans(a, b []*core.Plan) bool {
	return slices.EqualFunc(a, b, (*core.Plan).SameAs)
}

// warmupEpochs is the number of epochs a new MIR store must be fed
// before its content covers a full window.
func (c *Controller) warmupEpochs() int64 {
	el := c.eng.cfg.EpochLength
	if el <= 0 {
		return 0
	}
	w := c.maxWindow()
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

func (c *Controller) maxWindow() time.Duration {
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
