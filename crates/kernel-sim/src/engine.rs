use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::AddAssign;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::callgraph::CallEdge;
use crate::clock::SimClock;
use crate::tracer::NullTracer;
use crate::{
    CallGraph, CpuId, CpuState, Debugfs, EntryPoint, FunctionId, FunctionTracer, KernelError,
    KernelImage, KernelImageBuilder, KernelModule, KernelOp, ModuleOp, Nanos, Stage, SymbolTable,
};

/// Configuration of a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Number of logical CPUs. Default 16, like the paper's dual-socket
    /// Nehalem R710 with hyperthreads.
    pub num_cpus: usize,
    /// Seed for run-time stochastic branching (page-cache hits, lock
    /// slow paths, ...). Two kernels with equal image and seed behave
    /// identically.
    pub seed: u64,
    /// Timer interrupt rate (Hz); 0 disables ticks. Default 1000
    /// (`CONFIG_HZ_1000`, as in the paper's 2.6.28 era).
    pub timer_hz: u32,
    /// Seed of the kernel *image* (symbol/edge generation). Different
    /// image seeds model different kernel builds.
    pub image_seed: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        // Grouped to read as kernel version 2.6.28, not a byte count.
        #[allow(clippy::unusual_byte_groupings)]
        KernelConfig {
            num_cpus: 16,
            seed: 1,
            timer_hz: 1000,
            image_seed: 0x2_6_28,
        }
    }
}

/// Execution statistics for one or more operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Instrumented kernel function calls performed.
    pub calls: u64,
    /// Simulated time consumed (base costs + tracer overhead + module
    /// internal time).
    pub time: Nanos,
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.calls += rhs.calls;
        self.time += rhs.time;
    }
}

/// A loaded module with its handler entries resolved to function ids.
#[derive(Debug, Clone)]
struct LoadedModule {
    module: KernelModule,
    resolved: HashMap<ModuleOp, Vec<(FunctionId, f64)>>,
    internal: HashMap<ModuleOp, Nanos>,
}

/// The stochastic call-tree walker: the frozen call graph, each
/// function's base cost as one dense column, the run-time RNG, the
/// depth-first stack, sized at boot so that no walk can overflow it, and
/// the walk's calls, which every walk clears and reuses.
struct Walker {
    callgraph: CallGraph,
    base_costs: Box<[Nanos]>,
    rng: SmallRng,
    stack: Box<[FunctionId]>,
    calls: Vec<FunctionId>,
}

impl Walker {
    fn new(callgraph: CallGraph, base_costs: Box<[Nanos]>, seed: u64) -> Self {
        Walker {
            stack: vec![FunctionId(0); callgraph.walk_stack_len()].into_boxed_slice(),
            callgraph,
            base_costs,
            rng: SmallRng::seed_from_u64(seed),
            calls: Vec::new(),
        }
    }

    /// Walks the call subtree rooted at `entry`, hands the calls to
    /// `tracer` in one hook, and charges their base costs plus the
    /// tracer's overhead for each. The caller books the result to a CPU
    /// and the clock.
    fn walk(&mut self, tracer: &dyn FunctionTracer, cpu: CpuId, entry: FunctionId) -> ExecStats {
        let overhead = tracer.overhead();
        let mut base = 0u64;
        self.calls.clear();
        self.stack[0] = entry;
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let f = self.stack[top];
            self.calls.push(f);
            base += self.base_costs[f.index()].0;
            for edge in self.callgraph.callees(f) {
                let fires = edge.threshold >= CallEdge::ALWAYS
                    || self.rng.next_u64() >> 40 < u64::from(edge.threshold);
                if edge.max_repeats == 1 {
                    // Written either way; kept only if the site fired.
                    self.stack[top] = edge.callee;
                    top += usize::from(fires);
                } else if fires {
                    for _ in 0..self.rng.random_range(1..=edge.max_repeats) {
                        self.stack[top] = edge.callee;
                        top += 1;
                    }
                }
            }
        }
        tracer.on_calls(cpu, &self.calls);
        let calls = self.calls.len() as u64;
        ExecStats {
            calls,
            time: Nanos(base + calls * overhead.0),
        }
    }

    /// Samples the number of driver calls for `units` units of work at a
    /// mean rate of `per_unit` calls per unit.
    fn sample_count(&mut self, per_unit: f64, units: u32) -> u64 {
        if per_unit <= 0.0 || units == 0 {
            return 0;
        }
        let whole = per_unit.trunc() as u64 * units as u64;
        let frac = per_unit.fract();
        if frac == 0.0 {
            return whole;
        }
        // Binomial(units, frac) by direct simulation; units are small
        // (interrupt batches), so this stays cheap and exact.
        let mut extra = 0u64;
        for _ in 0..units {
            if self.rng.random::<f64>() < frac {
                extra += 1;
            }
        }
        whole + extra
    }
}

/// The simulated machine: a monolithic kernel with per-CPU state, a
/// stochastic call-tree walker, loadable modules, a pluggable
/// [`FunctionTracer`], and a simulated clock.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use fmeter_kernel_sim::{CountingTracer, CpuId, Kernel, KernelConfig, KernelOp};
///
/// let mut kernel = Kernel::new(KernelConfig::default())?;
/// let tracer = Arc::new(CountingTracer::new(kernel.num_functions()));
/// kernel.set_tracer(tracer.clone());
///
/// let stats = kernel.run_op(CpuId(0), KernelOp::Read { bytes: 4096 })?;
/// assert!(stats.calls > 0);
/// assert_eq!(tracer.total(), stats.calls);
/// # Ok::<(), fmeter_kernel_sim::KernelError>(())
/// ```
pub struct Kernel {
    symbols: Arc<SymbolTable>,
    walker: Walker,
    /// `EntryPoint::ALL` resolved against the symbol table, by
    /// `EntryPoint::index`; `None` for an anchor this build lacks.
    entry_points: Box<[Option<FunctionId>]>,
    /// The current op's plan; kept so ops reuse one buffer.
    plan: Vec<Stage>,
    cpus: Vec<CpuState>,
    clock: SimClock,
    tracer: Arc<dyn FunctionTracer>,
    modules: Vec<LoadedModule>,
    debugfs: Debugfs,
    timer_period: Option<Nanos>,
    next_tick: Nanos,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("functions", &self.symbols.len())
            .field("cpus", &self.cpus.len())
            .field("tracer", &self.tracer.name())
            .field("modules", &self.modules.len())
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Kernel {
    /// Boots a machine with a freshly built kernel image.
    ///
    /// # Errors
    ///
    /// Propagates image construction failures (see
    /// [`KernelImageBuilder::build`]).
    pub fn new(config: KernelConfig) -> Result<Self, KernelError> {
        let image = KernelImageBuilder::new().seed(config.image_seed).build()?;
        Ok(Self::from_image(image, config))
    }

    /// Boots a machine from a pre-built image (lets tests and benches
    /// share one image across many kernels).
    pub(crate) fn from_image(image: KernelImage, config: KernelConfig) -> Self {
        let timer_period = if config.timer_hz == 0 {
            None
        } else {
            Some(Nanos(1_000_000_000 / config.timer_hz as u64))
        };
        let symbols = Arc::new(image.symbols);
        let mut debugfs = Debugfs::new();
        // /proc/kallsyms-style symbol map: how user space resolves the
        // addresses the Fmeter export is keyed by.
        let kallsyms_src = Arc::clone(&symbols);
        debugfs.register(
            "kallsyms",
            Arc::new(move || {
                let mut out = String::with_capacity(kallsyms_src.len() * 40);
                for f in kallsyms_src.iter() {
                    writeln!(out, "{:016x} t {}", f.address, f.name)
                        .expect("writing to a String cannot fail");
                }
                out
            }),
        );
        let entry_points = EntryPoint::ALL
            .iter()
            .map(|entry| symbols.lookup(entry.name()).ok())
            .collect();
        Kernel {
            walker: Walker::new(
                image.callgraph,
                symbols.iter().map(|f| f.base_cost).collect(),
                config.seed,
            ),
            symbols,
            entry_points,
            plan: Vec::new(),
            cpus: (0..config.num_cpus.max(1))
                .map(|_| CpuState::new())
                .collect(),
            clock: SimClock::new(),
            tracer: Arc::new(NullTracer),
            modules: Vec::new(),
            debugfs,
            timer_period,
            next_tick: timer_period.unwrap_or(Nanos(u64::MAX)),
        }
    }

    /// The kernel's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of instrumented functions (signature dimensionality).
    pub fn num_functions(&self) -> usize {
        self.symbols.len()
    }

    /// Number of simulated CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Installs a tracer ("patching the kernel"). The previous tracer is
    /// returned so callers can flip instrumentation on and off.
    pub fn set_tracer(&mut self, tracer: Arc<dyn FunctionTracer>) -> Arc<dyn FunctionTracer> {
        std::mem::replace(&mut self.tracer, tracer)
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &Arc<dyn FunctionTracer> {
        &self.tracer
    }

    /// Current simulated time since boot.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Per-CPU state (read-only).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::CpuOutOfRange`] for an invalid id.
    pub fn cpu(&self, cpu: CpuId) -> Result<&CpuState, KernelError> {
        self.cpus.get(cpu.0).ok_or(KernelError::CpuOutOfRange {
            cpu: cpu.0,
            num_cpus: self.cpus.len(),
        })
    }

    /// The simulated debugfs mount.
    pub fn debugfs(&self) -> &Debugfs {
        &self.debugfs
    }

    /// Mutable access to debugfs (for registering provider files).
    pub fn debugfs_mut(&mut self) -> &mut Debugfs {
        &mut self.debugfs
    }

    /// Loads a module, resolving its handler entries against the symbol
    /// table.
    ///
    /// # Errors
    ///
    /// * [`KernelError::ModuleAlreadyLoaded`] if a module with this name
    ///   is present,
    /// * [`KernelError::UnknownFunction`] if a handler references a
    ///   non-existent core-kernel function.
    pub fn load_module(&mut self, module: KernelModule) -> Result<(), KernelError> {
        if self
            .modules
            .iter()
            .any(|m| m.module.name() == module.name())
        {
            return Err(KernelError::ModuleAlreadyLoaded(module.name().to_string()));
        }
        let mut resolved = HashMap::new();
        let mut internal = HashMap::new();
        for op in [
            ModuleOp::NicReceive,
            ModuleOp::NicTransmit,
            ModuleOp::NicInterrupt,
        ] {
            let handler = module.handler(op);
            let mut entries = Vec::with_capacity(handler.calls.len());
            for call in &handler.calls {
                entries.push((self.symbols.lookup(&call.entry)?, call.calls_per_unit));
            }
            resolved.insert(op, entries);
            internal.insert(op, handler.internal_cost_per_unit);
        }
        self.modules.push(LoadedModule {
            module,
            resolved,
            internal,
        });
        Ok(())
    }

    /// Unloads the named module.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ModuleNotLoaded`] when absent.
    pub fn unload_module(&mut self, name: &str) -> Result<KernelModule, KernelError> {
        let pos = self
            .modules
            .iter()
            .position(|m| m.module.name() == name)
            .ok_or_else(|| KernelError::ModuleNotLoaded(name.to_string()))?;
        Ok(self.modules.remove(pos).module)
    }

    /// The named loaded module, if present.
    #[cfg(test)]
    pub(crate) fn module(&self, name: &str) -> Option<&KernelModule> {
        self.modules
            .iter()
            .find(|m| m.module.name() == name)
            .map(|m| &m.module)
    }

    /// Names of loaded modules.
    pub fn loaded_modules(&self) -> Vec<&str> {
        self.modules.iter().map(|m| m.module.name()).collect()
    }

    /// Executes one kernel operation on `cpu`, walking every stage of its
    /// plan, then delivers any timer ticks that came due.
    ///
    /// # Errors
    ///
    /// * [`KernelError::CpuOutOfRange`] for an invalid CPU,
    /// * [`KernelError::UnknownFunction`] if the op plan references an
    ///   entry missing from this kernel build.
    pub fn run_op(&mut self, cpu: CpuId, op: KernelOp) -> Result<ExecStats, KernelError> {
        self.check_cpu(cpu)?;
        let mut stats = self.run_op_inner(cpu, op)?;
        stats += self.deliver_due_ticks(cpu)?;
        Ok(stats)
    }

    fn run_op_inner(&mut self, cpu: CpuId, op: KernelOp) -> Result<ExecStats, KernelError> {
        op.plan_into(&mut self.plan);
        let mut stats = ExecStats::default();
        let mut missing = None;
        for stage in &self.plan {
            let Some(entry) = self.entry_points[stage.entry.index()] else {
                missing = Some(stage.entry);
                break;
            };
            for _ in 0..stage.repeats {
                if stage.probability >= 1.0 || self.walker.rng.random::<f32>() < stage.probability {
                    stats += self.walker.walk(&*self.tracer, cpu, entry);
                }
            }
        }
        self.charge(cpu, stats);
        if let Some(entry) = missing {
            return Err(KernelError::UnknownFunction(entry.name().to_string()));
        }
        self.cpus[cpu.0].ops_executed += 1;
        Ok(stats)
    }

    /// Executes one module operation covering `units` units of work
    /// (packets for NIC ops). Module-internal time elapses but produces
    /// no tracer events; each core-kernel call the driver makes walks its
    /// subtree normally.
    ///
    /// # Errors
    ///
    /// * [`KernelError::CpuOutOfRange`] for an invalid CPU,
    /// * [`KernelError::ModuleNotLoaded`] when the module is absent.
    pub fn run_module_op(
        &mut self,
        cpu: CpuId,
        module: &str,
        op: ModuleOp,
        units: u32,
    ) -> Result<ExecStats, KernelError> {
        self.check_cpu(cpu)?;
        let index = self
            .modules
            .iter()
            .position(|m| m.module.name() == module)
            .ok_or_else(|| KernelError::ModuleNotLoaded(module.to_string()))?;
        let module = &self.modules[index];
        let internal = module.internal[&op];
        let mut stats = ExecStats::default();
        for &(entry, per_unit) in &module.resolved[&op] {
            let count = self.walker.sample_count(per_unit, units);
            for _ in 0..count {
                stats += self.walker.walk(&*self.tracer, cpu, entry);
            }
        }
        self.charge(cpu, stats);
        // Driver-internal (un-instrumented) time.
        let internal_total = Nanos(internal.0 * units as u64);
        self.clock.advance(internal_total);
        stats.time += internal_total;
        self.cpus[cpu.0].ops_executed += 1;
        stats += self.deliver_due_ticks(cpu)?;
        Ok(stats)
    }

    /// Spends `duration` of un-instrumented user-mode time on `cpu`,
    /// delivering timer ticks that come due meanwhile.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::CpuOutOfRange`] for an invalid CPU.
    pub fn run_user_time(&mut self, cpu: CpuId, duration: Nanos) -> Result<ExecStats, KernelError> {
        self.check_cpu(cpu)?;
        self.clock.advance(duration);
        self.deliver_due_ticks(cpu)
    }

    /// Fires the tracer for a single function without walking its subtree
    /// (models one-shot `__init`-style invocations during boot).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::FunctionOutOfRange`] for a bad id.
    pub(crate) fn call_single(
        &mut self,
        cpu: CpuId,
        function: FunctionId,
    ) -> Result<ExecStats, KernelError> {
        self.check_cpu(cpu)?;
        let func = self.symbols.function(function)?;
        let cost = func.base_cost + self.tracer.overhead();
        self.tracer.on_calls(cpu, &[function]);
        self.cpus[cpu.0].calls_executed += 1;
        self.clock.advance(cost);
        Ok(ExecStats {
            calls: 1,
            time: cost,
        })
    }

    /// Books walked calls and their time to `cpu` and the clock.
    fn charge(&mut self, cpu: CpuId, walked: ExecStats) {
        self.cpus[cpu.0].calls_executed += walked.calls;
        self.clock.advance(walked.time);
    }

    /// Runs every timer tick that came due at the current simulated time.
    fn deliver_due_ticks(&mut self, cpu: CpuId) -> Result<ExecStats, KernelError> {
        let Some(period) = self.timer_period else {
            return Ok(ExecStats::default());
        };
        let mut stats = ExecStats::default();
        // Bound the loop: if the op advanced time by many periods, fire at
        // most 64 ticks and resynchronise (a real tickless kernel coalesces
        // missed ticks similarly).
        let mut fired = 0;
        while self.clock.now() >= self.next_tick && fired < 64 {
            self.next_tick += period;
            stats += self.run_op_inner(cpu, KernelOp::TimerTick)?;
            fired += 1;
        }
        if self.clock.now() >= self.next_tick {
            let now = self.clock.now().0;
            self.next_tick = Nanos(now - now % period.0) + period;
        }
        Ok(stats)
    }

    fn check_cpu(&self, cpu: CpuId) -> Result<(), KernelError> {
        if cpu.0 >= self.cpus.len() {
            return Err(KernelError::CpuOutOfRange {
                cpu: cpu.0,
                num_cpus: self.cpus.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingTracer;

    fn small_kernel() -> Kernel {
        Kernel::new(KernelConfig {
            num_cpus: 2,
            seed: 7,
            timer_hz: 0,
            image_seed: 0x2628,
        })
        .expect("image builds")
    }

    #[test]
    fn run_op_produces_calls_and_time() {
        let mut k = small_kernel();
        let stats = k.run_op(CpuId(0), KernelOp::Read { bytes: 4096 }).unwrap();
        assert!(stats.calls >= 4, "read should touch several functions");
        assert!(stats.time > Nanos::ZERO);
        assert_eq!(k.cpu(CpuId(0)).unwrap().ops_executed, 1);
        assert_eq!(k.cpu(CpuId(0)).unwrap().calls_executed, stats.calls);
    }

    #[test]
    fn tracer_sees_every_call() {
        let mut k = small_kernel();
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        let mut expected = 0;
        for op in [
            KernelOp::SyscallNull,
            KernelOp::Open { components: 3 },
            KernelOp::Fstat,
        ] {
            expected += k.run_op(CpuId(0), op).unwrap().calls;
        }
        assert_eq!(tracer.total(), expected);
    }

    #[test]
    fn seeded_kernels_are_identical() {
        let mut a = small_kernel();
        let mut b = small_kernel();
        for _ in 0..20 {
            let sa = a.run_op(CpuId(0), KernelOp::Write { bytes: 8192 }).unwrap();
            let sb = b.run_op(CpuId(0), KernelOp::Write { bytes: 8192 }).unwrap();
            assert_eq!(sa, sb);
        }
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn different_seeds_diverge() {
        let image_config = |seed| KernelConfig {
            num_cpus: 1,
            seed,
            timer_hz: 0,
            image_seed: 0x2628,
        };
        let mut a = Kernel::new(image_config(1)).unwrap();
        let mut b = Kernel::new(image_config(2)).unwrap();
        let mut diverged = false;
        for _ in 0..10 {
            let sa = a
                .run_op(CpuId(0), KernelOp::Open { components: 4 })
                .unwrap();
            let sb = b
                .run_op(CpuId(0), KernelOp::Open { components: 4 })
                .unwrap();
            if sa != sb {
                diverged = true;
            }
        }
        assert!(diverged, "stochastic branching should differ across seeds");
    }

    #[test]
    fn tracer_overhead_slows_the_clock() {
        struct Expensive;
        impl FunctionTracer for Expensive {
            fn on_calls(&self, _: CpuId, _: &[FunctionId]) {}
            fn overhead(&self) -> Nanos {
                Nanos(100)
            }
            fn name(&self) -> &str {
                "expensive"
            }
        }
        let mut vanilla = small_kernel();
        let mut traced = small_kernel();
        traced.set_tracer(Arc::new(Expensive));
        let sv = vanilla
            .run_op(CpuId(0), KernelOp::Fork { pages: 8 })
            .unwrap();
        let st = traced
            .run_op(CpuId(0), KernelOp::Fork { pages: 8 })
            .unwrap();
        // Same seed => same walk; only the per-call overhead differs.
        assert_eq!(sv.calls, st.calls);
        assert_eq!(st.time.0, sv.time.0 + 100 * st.calls);
    }

    #[test]
    fn invalid_cpu_is_rejected() {
        let mut k = small_kernel();
        assert!(matches!(
            k.run_op(CpuId(99), KernelOp::SyscallNull),
            Err(KernelError::CpuOutOfRange { .. })
        ));
    }

    #[test]
    fn timer_ticks_fire_on_schedule() {
        let mut k = Kernel::new(KernelConfig {
            num_cpus: 1,
            seed: 3,
            timer_hz: 1000, // 1ms period
            image_seed: 0x2628,
        })
        .unwrap();
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        let tick_entry = k.symbols().lookup("smp_apic_timer_interrupt").unwrap();
        // Spend 5ms of user time: ~5 ticks must fire.
        k.run_user_time(CpuId(0), Nanos::from_millis(5)).unwrap();
        let ticks = tracer.count(tick_entry);
        assert!((4..=6).contains(&ticks), "expected ~5 ticks, got {ticks}");
    }

    #[test]
    fn ticks_disabled_means_no_ticks() {
        let mut k = small_kernel();
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        k.run_user_time(CpuId(0), Nanos::from_secs(1)).unwrap();
        assert_eq!(tracer.total(), 0);
    }

    #[test]
    fn module_ops_only_touch_core_kernel() {
        let mut k = small_kernel();
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        k.load_module(crate::modules::myri10ge_v151_no_lro())
            .unwrap();
        let stats = k
            .run_module_op(CpuId(0), "myri10ge", ModuleOp::NicReceive, 32)
            .unwrap();
        // 32 packets, no LRO: at least one netif_receive_skb per packet.
        let netif = k.symbols().lookup("netif_receive_skb").unwrap();
        assert!(tracer.count(netif) >= 32);
        // Module internal time elapsed on top of core-kernel walk time.
        assert!(stats.time > Nanos::ZERO);
    }

    #[test]
    fn module_lifecycle() {
        let mut k = small_kernel();
        k.load_module(crate::modules::myri10ge_v151()).unwrap();
        assert!(k.module("myri10ge").is_some());
        assert_eq!(k.loaded_modules(), vec!["myri10ge"]);
        assert!(matches!(
            k.load_module(crate::modules::myri10ge_v143()),
            Err(KernelError::ModuleAlreadyLoaded(_))
        ));
        let unloaded = k.unload_module("myri10ge").unwrap();
        assert_eq!(unloaded.version(), "1.5.1");
        assert!(matches!(
            k.run_module_op(CpuId(0), "myri10ge", ModuleOp::NicReceive, 1),
            Err(KernelError::ModuleNotLoaded(_))
        ));
    }

    #[test]
    fn call_single_fires_exactly_once() {
        let mut k = small_kernel();
        let tracer = Arc::new(CountingTracer::new(k.num_functions()));
        k.set_tracer(tracer.clone());
        let f = k.symbols().lookup("memcpy").unwrap();
        let stats = k.call_single(CpuId(0), f).unwrap();
        assert_eq!(stats.calls, 1);
        assert_eq!(tracer.count(f), 1);
        assert_eq!(tracer.total(), 1);
    }
}
