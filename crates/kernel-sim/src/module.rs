//! Runtime-loadable kernel modules.
//!
//! Fmeter does **not** instrument functions living in modules (paper §3):
//! module text is relocated at load time, and even tiny driver changes
//! shift every subsequent offset. Modules therefore appear in signatures
//! *only* through the core-kernel functions they call — which is exactly
//! what the paper's myri10ge experiment (Table 5) exploits, and what this
//! module models: a [`KernelModule`] is a bag of *handlers* mapping module
//! operations to distributions of core-kernel entry calls.

use crate::Nanos;

/// An operation served by a loaded module (driver-level event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ModuleOp {
    /// The NIC received a batch of packets; the driver pushes them into
    /// the core network stack.
    NicReceive,
    /// The core stack handed the driver packets to put on the wire.
    NicTransmit,
    /// The device raised an interrupt (housekeeping path).
    NicInterrupt,
}

/// One core-kernel call a module handler makes: `entry` is invoked
/// `calls_per_unit` times per unit of work (fractional values are sampled
/// stochastically at execution time).
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleCall {
    /// Anchor name of the core-kernel function the driver calls into.
    pub entry: String,
    /// Mean invocations per unit of work (per packet for NIC ops).
    pub calls_per_unit: f64,
}

impl ModuleCall {
    /// Convenience constructor.
    pub(crate) fn new(entry: impl Into<String>, calls_per_unit: f64) -> Self {
        ModuleCall {
            entry: entry.into(),
            calls_per_unit,
        }
    }
}

/// A handler for one [`ModuleOp`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModuleHandler {
    /// Core-kernel calls made per unit of work.
    pub calls: Vec<ModuleCall>,
    /// Driver-internal (un-instrumented) execution cost per unit of work.
    /// This time is visible in latencies but invisible to the tracer —
    /// like real module code compiled without `-pg`.
    pub internal_cost_per_unit: Nanos,
}

/// A loadable module: name, version, and its per-op behaviour.
///
/// # Examples
///
/// ```
/// use fmeter_kernel_sim::modules;
///
/// let lro = modules::myri10ge_v151();
/// let nolro = modules::myri10ge_v151_no_lro();
/// assert_eq!(lro.version(), "1.5.1");
/// // Same driver, one load-time parameter flipped — different behaviour.
/// assert_ne!(
///     lro.handler(fmeter_kernel_sim::ModuleOp::NicReceive),
///     nolro.handler(fmeter_kernel_sim::ModuleOp::NicReceive),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModule {
    name: String,
    version: String,
    params: Vec<(String, String)>,
    receive: ModuleHandler,
    transmit: ModuleHandler,
    interrupt: ModuleHandler,
}

impl KernelModule {
    /// Creates a module with empty handlers.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Self {
        KernelModule {
            name: name.into(),
            version: version.into(),
            params: Vec::new(),
            receive: ModuleHandler::default(),
            transmit: ModuleHandler::default(),
            interrupt: ModuleHandler::default(),
        }
    }

    /// Module name (e.g. `myri10ge`).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Module version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Sets a load-time parameter.
    pub(crate) fn param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.push((key.into(), value.into()));
        self
    }

    /// Installs the handler for `op`.
    pub fn with_handler(mut self, op: ModuleOp, handler: ModuleHandler) -> Self {
        match op {
            ModuleOp::NicReceive => self.receive = handler,
            ModuleOp::NicTransmit => self.transmit = handler,
            ModuleOp::NicInterrupt => self.interrupt = handler,
        }
        self
    }

    /// The handler for `op`.
    pub fn handler(&self, op: ModuleOp) -> &ModuleHandler {
        match op {
            ModuleOp::NicReceive => &self.receive,
            ModuleOp::NicTransmit => &self.transmit,
            ModuleOp::NicInterrupt => &self.interrupt,
        }
    }
}

/// Constructors for the three myri10ge driver variants of the paper's
/// Table 5 experiment.
pub mod modules {
    use super::*;

    /// myri10ge v1.5.1, default parameters (LRO enabled) — the paper's
    /// "normal mode of operation" baseline.
    ///
    /// With large receive offload, the driver aggregates ~8 segments into
    /// one super-packet before handing it to the stack: many
    /// `inet_lro_receive_skb` calls, comparatively few full stack
    /// traversals.
    pub fn myri10ge_v151() -> KernelModule {
        KernelModule::new("myri10ge", "1.5.1")
            .param("lro", "1")
            .with_handler(
                ModuleOp::NicReceive,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("inet_lro_receive_skb", 1.0),
                        ModuleCall::new("lro_flush_all", 0.125),
                        ModuleCall::new("netdev_alloc_skb", 1.0),
                        ModuleCall::new("eth_type_trans", 0.125),
                        ModuleCall::new("__napi_complete", 0.06),
                    ],
                    internal_cost_per_unit: Nanos(90),
                },
            )
            .with_handler(
                ModuleOp::NicTransmit,
                ModuleHandler {
                    calls: vec![
                        // Multi-queue tx: the stack consulted the driver's
                        // (un-instrumented) select_queue; the driver frees
                        // skbs and occasionally kicks the queue.
                        ModuleCall::new("kfree_skb", 1.0),
                        ModuleCall::new("netif_schedule_queue", 0.12),
                    ],
                    internal_cost_per_unit: Nanos(120),
                },
            )
            .with_handler(
                ModuleOp::NicInterrupt,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("do_IRQ", 1.0),
                        ModuleCall::new("napi_schedule_fn", 0.9),
                    ],
                    internal_cost_per_unit: Nanos(300),
                },
            )
    }

    /// myri10ge v1.5.1 with `myri10ge_lro=0` — the paper's "compromised
    /// system" scenario: one load-time flag flipped, LRO disabled.
    ///
    /// Every segment now traverses the full stack individually: per-packet
    /// `netif_receive_skb` and `eth_type_trans`, no LRO calls at all.
    pub fn myri10ge_v151_no_lro() -> KernelModule {
        KernelModule::new("myri10ge", "1.5.1")
            .param("lro", "0")
            .with_handler(
                ModuleOp::NicReceive,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("netif_receive_skb", 1.0),
                        ModuleCall::new("eth_type_trans", 1.0),
                        ModuleCall::new("netdev_alloc_skb", 1.0),
                        ModuleCall::new("__napi_complete", 0.06),
                    ],
                    internal_cost_per_unit: Nanos(110),
                },
            )
            .with_handler(
                ModuleOp::NicTransmit,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("kfree_skb", 1.0),
                        ModuleCall::new("netif_schedule_queue", 0.12),
                    ],
                    internal_cost_per_unit: Nanos(120),
                },
            )
            .with_handler(
                ModuleOp::NicInterrupt,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("do_IRQ", 1.0),
                        ModuleCall::new("napi_schedule_fn", 0.9),
                    ],
                    internal_cost_per_unit: Nanos(300),
                },
            )
    }

    /// myri10ge v1.4.3, default parameters — the paper's "older, possibly
    /// buggy driver" scenario.
    ///
    /// The paper disassembled both versions: 24 functions differ, one was
    /// removed, 11 added (only `myri10ge_select_queue` ever called). None
    /// of that is visible directly — but the older receive path uses a
    /// slightly different helper mix (`alloc_skb` instead of
    /// `netdev_alloc_skb`, per-2-packet flushes, occasional
    /// `skb_linearize`), which is what the classifier keys on.
    pub fn myri10ge_v143() -> KernelModule {
        KernelModule::new("myri10ge", "1.4.3")
            .param("lro", "1")
            .with_handler(
                ModuleOp::NicReceive,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("inet_lro_receive_skb", 1.0),
                        ModuleCall::new("lro_flush_all", 0.25),
                        ModuleCall::new("alloc_skb", 1.0),
                        ModuleCall::new("eth_type_trans", 0.25),
                        ModuleCall::new("skb_linearize", 0.05),
                        ModuleCall::new("__napi_complete", 0.06),
                    ],
                    internal_cost_per_unit: Nanos(100),
                },
            )
            .with_handler(
                ModuleOp::NicTransmit,
                ModuleHandler {
                    // Single-queue tx path: no select_queue, no queue kicks.
                    calls: vec![ModuleCall::new("kfree_skb", 1.0)],
                    internal_cost_per_unit: Nanos(130),
                },
            )
            .with_handler(
                ModuleOp::NicInterrupt,
                ModuleHandler {
                    calls: vec![
                        ModuleCall::new("do_IRQ", 1.0),
                        ModuleCall::new("netif_rx", 0.2),
                        ModuleCall::new("napi_schedule_fn", 0.7),
                    ],
                    internal_cost_per_unit: Nanos(340),
                },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::modules::*;
    use super::*;

    #[test]
    fn variants_have_distinct_receive_profiles() {
        let a = myri10ge_v151();
        let b = myri10ge_v151_no_lro();
        let c = myri10ge_v143();
        assert_ne!(
            a.handler(ModuleOp::NicReceive),
            b.handler(ModuleOp::NicReceive)
        );
        assert_ne!(
            a.handler(ModuleOp::NicReceive),
            c.handler(ModuleOp::NicReceive)
        );
        assert_ne!(
            b.handler(ModuleOp::NicReceive),
            c.handler(ModuleOp::NicReceive)
        );
    }

    #[test]
    fn lro_off_goes_per_packet() {
        let no_lro = myri10ge_v151_no_lro();
        let rx = no_lro.handler(ModuleOp::NicReceive);
        let netif = rx
            .calls
            .iter()
            .find(|c| c.entry == "netif_receive_skb")
            .unwrap();
        assert_eq!(netif.calls_per_unit, 1.0);
        assert!(!rx.calls.iter().any(|c| c.entry == "inet_lro_receive_skb"));

        let lro = myri10ge_v151();
        let rx = lro.handler(ModuleOp::NicReceive);
        assert!(rx.calls.iter().any(|c| c.entry == "inet_lro_receive_skb"));
        assert!(!rx.calls.iter().any(|c| c.entry == "netif_receive_skb"));
    }

    #[test]
    fn params_recorded() {
        let m = myri10ge_v151_no_lro();
        assert_eq!(m.params, &[("lro".to_string(), "0".to_string())]);
        assert_eq!(m.name(), "myri10ge");
    }

    #[test]
    fn builder_installs_handlers() {
        let m = KernelModule::new("dummy", "0.1").with_handler(
            ModuleOp::NicTransmit,
            ModuleHandler {
                calls: vec![ModuleCall::new("kfree_skb", 2.0)],
                internal_cost_per_unit: Nanos(10),
            },
        );
        assert_eq!(m.handler(ModuleOp::NicTransmit).calls.len(), 1);
        assert!(m.handler(ModuleOp::NicReceive).calls.is_empty());
    }
}
