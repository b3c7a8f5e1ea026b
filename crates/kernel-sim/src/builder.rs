//! Deterministic construction of the simulated kernel image: symbol table,
//! generated intra-subsystem call edges, and the hand-wired cross-subsystem
//! edges that model the kernel's vertical paths.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::callgraph::CallEdge;
use crate::names::{anchors, vocabulary};
use crate::{CallGraph, FunctionId, KernelError, Nanos, Subsystem, SymbolTable};

/// Target function population per subsystem. The total is 3815, matching
/// the function count the paper reports for its instrumented 2.6.28 kernel
/// (Figure 1).
const POPULATION: &[(Subsystem, usize)] = &[
    (Subsystem::Syscall, 120),
    (Subsystem::Vfs, 500),
    (Subsystem::Ipc, 150),
    (Subsystem::Net, 700),
    (Subsystem::Fs, 400),
    (Subsystem::Block, 300),
    (Subsystem::Irq, 170),
    (Subsystem::Sched, 280),
    (Subsystem::Mm, 430),
    (Subsystem::Security, 120),
    (Subsystem::Time, 140),
    (Subsystem::Slab, 80),
    (Subsystem::Locking, 120),
    (Subsystem::Util, 305),
];

/// Total number of core-kernel functions the builder produces.
pub(crate) const NUM_KERNEL_FUNCTIONS: usize = 3815;

/// Number of layers per vertical subsystem (0 = entries).
const VERTICAL_LAYERS: u8 = 4;
/// Number of layers per service subsystem.
const SERVICE_LAYERS: u8 = 2;

/// Base-cost range (ns) per subsystem: (layer-0 .. deeper layers get the
/// lower end). These constants, together with per-call tracer overhead,
/// produce the latency shapes of Tables 1-3.
fn cost_range(subsystem: Subsystem) -> (u64, u64) {
    match subsystem {
        Subsystem::Syscall => (3, 9),
        Subsystem::Vfs => (4, 12),
        Subsystem::Ipc => (4, 12),
        Subsystem::Net => (5, 14),
        Subsystem::Fs => (6, 16),
        Subsystem::Block => (7, 18),
        Subsystem::Irq => (4, 12),
        Subsystem::Sched => (5, 14),
        Subsystem::Mm => (4, 12),
        Subsystem::Security => (2, 6),
        Subsystem::Time => (2, 8),
        Subsystem::Slab => (4, 10),
        Subsystem::Locking => (2, 6),
        Subsystem::Util => (2, 8),
    }
}

/// Hardware-dominated functions whose execution cost is not "a few
/// instructions": register/address-space switches, page zeroing and
/// copying, user-memory transfer, device doorbells, I/O waits. These
/// fixed costs are what make some lmbench rows far less sensitive to
/// per-call instrumentation than others (paper Table 1 spans 2.1x–12.2x
/// for Ftrace).
const COST_OVERRIDES: &[(&str, u64)] = &[
    ("__switch_to", 1200),
    ("switch_mm", 400),
    ("flush_tlb_page", 150),
    ("flush_tlb_mm", 300),
    ("flush_tlb_range", 250),
    ("do_anonymous_page", 500), // zeroes the fresh page
    ("do_wp_page", 700),        // copies the COW page
    ("setup_rt_frame", 350),    // signal frame to user stack
    ("force_sig_info", 200),
    ("__alloc_pages_internal", 120),
    ("submit_bio", 350), // device doorbell
    ("scsi_dispatch_cmd", 400),
    ("io_schedule", 1500), // I/O wait before completion
    ("copy_to_user", 120),
    ("copy_from_user", 120),
    ("memcpy", 60),
    ("skb_copy_datagram_iovec", 250),
    ("csum_partial", 150),
    ("csum_partial_copy_generic", 250),
    ("load_elf_binary", 800),
    ("journal_commit_transaction_step", 600),
    ("wait_task_zombie", 300),
    ("unix_stream_connect", 500),
];

/// Builds the kernel image (symbol table + call graph) deterministically
/// from a seed.
#[derive(Debug, Clone)]
pub struct KernelImageBuilder {
    seed: u64,
}

/// A fully built, verified kernel image.
#[derive(Debug, Clone)]
pub struct KernelImage {
    /// The instrumented symbol table (3815 functions).
    pub symbols: SymbolTable,
    /// Acyclic call graph over the symbols.
    pub callgraph: CallGraph,
}

impl Default for KernelImageBuilder {
    fn default() -> Self {
        KernelImageBuilder::new()
    }
}

impl KernelImageBuilder {
    /// Builder with the default seed (the "released kernel build").
    pub fn new() -> Self {
        // Grouped to read as kernel version 2.6.28, not a byte count.
        #[allow(clippy::unusual_byte_groupings)]
        KernelImageBuilder { seed: 0x2_6_28 }
    }

    /// Uses a custom seed — a different "kernel build" with the same
    /// anchors but different filler symbols, addresses, and edges. The
    /// paper notes signatures are not comparable across kernel versions;
    /// two images with different seeds model exactly that.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds and verifies the image.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::CyclicCallGraph`] if a hand-wired edge
    /// introduced a cycle (a bug in the edge tables) and
    /// [`KernelError::UnknownFunction`] if a hand-wired edge references a
    /// missing anchor.
    pub fn build(&self) -> Result<KernelImage, KernelError> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let (mut symbols, is_anchor) = self.build_symbols(&mut rng);
        self.apply_cost_overrides(&mut symbols);
        let mut sites = Vec::new();
        self.generate_edges(&symbols, &is_anchor, &mut sites, &mut rng);
        self.wire_cross_edges(&symbols, &mut sites)?;
        let callgraph = CallGraph::from_sites(symbols.len(), &sites);
        callgraph.verify_acyclic(&symbols)?;
        Ok(KernelImage { symbols, callgraph })
    }

    fn apply_cost_overrides(&self, symbols: &mut SymbolTable) {
        for &(name, cost) in COST_OVERRIDES {
            symbols
                .set_base_cost(name, Nanos(cost))
                .expect("cost overrides reference anchor symbols");
        }
    }

    /// Builds the table and reports which ids are hand-authored anchors.
    fn build_symbols(&self, rng: &mut SmallRng) -> (SymbolTable, Vec<bool>) {
        let mut table = SymbolTable::new();
        let mut is_anchor = Vec::new();
        let mut address: u64 = 0xffff_ffff_8100_0000;
        let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
        for &(subsystem, target) in POPULATION {
            let layers = if subsystem.is_service() {
                SERVICE_LAYERS
            } else {
                VERTICAL_LAYERS
            };
            let anchor_layers = anchors(subsystem);
            let (lo, hi) = cost_range(subsystem);
            let mut remaining = target;
            // Anchors first, at their designated layers.
            for (layer, names) in anchor_layers.iter().enumerate() {
                for name in *names {
                    assert!(
                        remaining > 0,
                        "{subsystem}: population smaller than anchors"
                    );
                    let cost = rng.random_range(lo..=hi);
                    used.insert((*name).to_string());
                    table.push(*name, address, subsystem, layer as u8, Nanos(cost));
                    is_anchor.push(true);
                    address += 16 * rng.random_range(4..=64) as u64;
                    remaining -= 1;
                }
            }
            // Filler names spread over the deeper half of the layer range.
            let (prefixes, stems, suffixes) = vocabulary(subsystem);
            let mut counter = 0usize;
            while remaining > 0 {
                let prefix = prefixes[rng.random_range(0..prefixes.len())];
                let stem = stems[rng.random_range(0..stems.len())];
                let suffix = suffixes[rng.random_range(0..suffixes.len())];
                let mut name = format!("{prefix}{stem}{suffix}");
                if used.contains(&name) {
                    counter += 1;
                    name = format!("{name}_{counter}");
                    if used.contains(&name) {
                        continue;
                    }
                }
                used.insert(name.clone());
                // Fillers populate layers 1.. (never entries) for vertical
                // subsystems, all layers for services.
                let layer = if subsystem.is_service() {
                    rng.random_range(0..layers)
                } else {
                    rng.random_range(1..layers)
                };
                // Deeper functions trend cheaper (leaf helpers).
                let depth_scale = 1.0 - 0.15 * layer as f64;
                let cost = ((rng.random_range(lo..=hi) as f64) * depth_scale).max(1.0) as u64;
                table.push(name, address, subsystem, layer, Nanos(cost));
                is_anchor.push(false);
                address += 16 * rng.random_range(4..=64) as u64;
                remaining -= 1;
            }
        }
        debug_assert_eq!(table.len(), NUM_KERNEL_FUNCTIONS);
        (table, is_anchor)
    }

    /// Generated edges: within-subsystem, strictly layer-increasing, plus
    /// calls into service subsystems (which rank after all verticals), with
    /// hot service anchors preferentially targeted.
    ///
    /// Acyclicity argument (holds for *every* seed): inside vertical
    /// subsystems, generated edges only target deeper-layer *filler*
    /// functions, so any anchor-to-anchor path consists purely of
    /// hand-wired edges — a fixed, statically acyclic set. Filler
    /// functions only call deeper filler and services; service subsystems
    /// rank after all verticals and are internally layer-increasing (with
    /// Slab restricted to later services). `verify_acyclic` remains the
    /// belt-and-braces check.
    fn generate_edges(
        &self,
        symbols: &SymbolTable,
        is_anchor: &[bool],
        sites: &mut Vec<(FunctionId, CallEdge)>,
        rng: &mut SmallRng,
    ) {
        // Pre-index functions by (subsystem, layer); vertical subsystems
        // additionally index their filler-only population.
        let mut by_sl: std::collections::HashMap<(Subsystem, u8), Vec<FunctionId>> =
            std::collections::HashMap::new();
        let mut filler_by_sl: std::collections::HashMap<(Subsystem, u8), Vec<FunctionId>> =
            std::collections::HashMap::new();
        for f in symbols.iter() {
            by_sl.entry((f.subsystem, f.layer)).or_default().push(f.id);
            if !is_anchor[f.id.index()] {
                filler_by_sl
                    .entry((f.subsystem, f.layer))
                    .or_default()
                    .push(f.id);
            }
        }
        let service_pool: Vec<(Subsystem, f32)> = vec![
            (Subsystem::Locking, 0.50),
            (Subsystem::Util, 0.28),
            (Subsystem::Slab, 0.12),
            (Subsystem::Time, 0.07),
            (Subsystem::Security, 0.03),
        ];
        for f in symbols.iter() {
            let subsystem = f.subsystem;
            let layers = if subsystem.is_service() {
                SERVICE_LAYERS
            } else {
                VERTICAL_LAYERS
            };
            // --- Intra-subsystem edges to deeper layers ---
            if f.layer + 1 < layers {
                let fanout = match f.layer {
                    0 => rng.random_range(2..=4),
                    1 => rng.random_range(1..=3),
                    _ => rng.random_range(0..=2),
                };
                for _ in 0..fanout {
                    let target_layer = rng.random_range((f.layer + 1)..layers);
                    // Vertical subsystems: generated edges avoid anchors so
                    // hand-wired anchor paths (which include same-layer and
                    // backward hops) can never be closed into a cycle.
                    let pool = if subsystem.is_service() {
                        by_sl.get(&(subsystem, target_layer))
                    } else {
                        filler_by_sl.get(&(subsystem, target_layer))
                    };
                    if let Some(candidates) = pool {
                        if candidates.is_empty() {
                            continue;
                        }
                        let callee = candidates[rng.random_range(0..candidates.len())];
                        let probability = 0.25 + rng.random::<f32>() * 0.75;
                        let max_repeats = if rng.random::<f32>() < 0.15 { 3 } else { 1 };
                        sites.push((f.id, CallEdge::new(callee, probability, max_repeats)));
                    }
                }
            }
            // --- Service edges (skip service->service beyond one hop down
            // the pool order to bound depth) ---
            if !subsystem.is_service() || subsystem == Subsystem::Slab {
                let service_fanout = match f.layer {
                    0 | 1 => rng.random_range(1..=3),
                    _ => rng.random_range(0..=2),
                };
                for _ in 0..service_fanout {
                    // Pick the service subsystem by weight.
                    let mut roll = rng.random::<f32>();
                    let mut target_subsystem = Subsystem::Util;
                    for &(s, w) in &service_pool {
                        if roll < w {
                            target_subsystem = s;
                            break;
                        }
                        roll -= w;
                    }
                    // Slab itself only calls strictly later services.
                    if subsystem == Subsystem::Slab
                        && target_subsystem.rank() <= Subsystem::Slab.rank()
                    {
                        target_subsystem = Subsystem::Locking;
                    }
                    let layer = rng.random_range(0..SERVICE_LAYERS);
                    let Some(candidates) = by_sl.get(&(target_subsystem, layer)) else {
                        continue;
                    };
                    // Hot heads: 70% of picks land on the first 24
                    // functions (the anchors: spinlocks, memcpy, kmalloc...)
                    // — this is what makes them corpus-wide stop words.
                    let hot = 24.min(candidates.len());
                    let idx = if rng.random::<f32>() < 0.7 {
                        rng.random_range(0..hot)
                    } else {
                        rng.random_range(0..candidates.len())
                    };
                    let callee = candidates[idx];
                    let probability = 0.3 + rng.random::<f32>() * 0.7;
                    let max_repeats = if rng.random::<f32>() < 0.25 { 2 } else { 1 };
                    sites.push((f.id, CallEdge::new(callee, probability, max_repeats)));
                }
            }
            // --- Locking pairs: a function that takes a lock releases it ---
            if !subsystem.is_service() && rng.random::<f32>() < 0.5 {
                if let (Ok(lock), Ok(unlock)) =
                    (symbols.lookup("_spin_lock"), symbols.lookup("_spin_unlock"))
                {
                    sites.push((f.id, CallEdge::always(lock)));
                    sites.push((f.id, CallEdge::always(unlock)));
                }
            }
        }
    }

    /// Hand-wired cross-subsystem (and some intra-subsystem) edges modelling
    /// the kernel's well-known vertical paths. `(caller, callee, probability,
    /// max_repeats)`.
    fn cross_edges(&self) -> &'static [(&'static str, &'static str, f32, u8)] {
        &[
            // --- VFS read path into the page cache ---
            ("generic_file_aio_read", "do_sync_read", 0.6, 1),
            ("generic_file_aio_read", "find_get_page", 1.0, 3),
            ("generic_file_aio_read", "mark_page_accessed", 0.9, 2),
            ("generic_file_aio_read", "touch_atime", 0.8, 1),
            ("generic_file_aio_read", "copy_to_user", 1.0, 2),
            // Cache-miss path: readahead into the filesystem, then block.
            (
                "generic_file_aio_read",
                "page_cache_sync_readahead",
                0.08,
                1,
            ),
            ("page_cache_sync_readahead", "ondemand_readahead", 1.0, 1),
            ("ondemand_readahead", "ra_submit", 0.9, 1),
            ("ra_submit", "read_pages", 1.0, 1),
            ("read_pages", "add_to_page_cache_lru", 1.0, 3),
            // --- VFS write path ---
            (
                "generic_file_buffered_write",
                "grab_cache_page_write_begin",
                1.0,
                2,
            ),
            ("generic_file_buffered_write", "copy_from_user", 1.0, 2),
            ("generic_file_buffered_write", "mark_page_accessed", 0.7, 1),
            ("grab_cache_page_write_begin", "find_lock_page", 1.0, 1),
            ("ext3_write_begin", "journal_start", 1.0, 1),
            ("ext3_write_begin", "block_write_begin", 1.0, 1),
            ("ext3_write_begin", "ext3_get_block", 0.9, 2),
            ("ext3_ordered_write_end", "journal_stop", 1.0, 1),
            ("ext3_ordered_write_end", "journal_dirty_data", 0.9, 2),
            ("ext3_ordered_write_end", "mark_buffer_dirty", 0.9, 2),
            ("block_write_begin", "__block_prepare_write", 1.0, 1),
            ("__block_prepare_write", "create_empty_buffers", 0.4, 1),
            ("__block_prepare_write", "alloc_buffer_head", 0.4, 2),
            // --- Filesystem to block layer ---
            ("ext3_readpage", "mpage_readpage", 1.0, 1),
            ("mpage_readpage", "do_mpage_readpage", 1.0, 1),
            ("do_mpage_readpage", "ext3_get_block", 0.9, 2),
            ("do_mpage_readpage", "submit_bio", 0.9, 1),
            ("ext3_get_block", "ext3_get_blocks_handle", 1.0, 1),
            ("ext3_get_blocks_handle", "ext3_block_to_path", 1.0, 1),
            ("ext3_get_blocks_handle", "ext3_get_branch", 1.0, 1),
            ("submit_bh", "generic_make_request", 1.0, 1),
            ("ll_rw_block", "generic_make_request", 1.0, 2),
            ("sync_dirty_buffer", "ll_rw_block", 0.9, 1),
            ("submit_bio", "generic_make_request", 1.0, 1),
            ("generic_make_request", "__make_request", 1.0, 1),
            ("__make_request", "get_request", 0.8, 1),
            ("__make_request", "elv_merge", 0.9, 1),
            ("__make_request", "blk_plug_device", 0.5, 1),
            ("get_request", "blk_alloc_request", 0.9, 1),
            ("elv_next_request", "scsi_request_fn", 0.8, 1),
            ("scsi_request_fn", "scsi_dispatch_cmd", 0.9, 1),
            ("scsi_dispatch_cmd", "scsi_init_io", 0.9, 1),
            ("scsi_init_io", "blk_rq_map_sg", 1.0, 1),
            ("journal_start", "start_this_handle", 0.9, 1),
            ("journal_stop", "__journal_refile_buffer", 0.3, 1),
            ("journal_get_write_access", "do_get_write_access", 1.0, 1),
            (
                "journal_commit_transaction_step",
                "journal_write_metadata_buffer",
                0.9,
                2,
            ),
            ("journal_commit_transaction_step", "submit_bh", 0.9, 2),
            (
                "journal_commit_transaction_step",
                "__journal_file_buffer",
                0.8,
                2,
            ),
            ("ext3_mark_inode_dirty", "ext3_reserve_inode_write", 1.0, 1),
            (
                "ext3_reserve_inode_write",
                "journal_get_write_access",
                0.9,
                1,
            ),
            ("ext3_reserve_inode_write", "ext3_get_inode_loc", 0.9, 1),
            ("ext3_mark_inode_dirty", "ext3_mark_iloc_dirty", 1.0, 1),
            ("ext3_mark_iloc_dirty", "journal_dirty_metadata", 0.9, 1),
            ("ext3_create", "journal_start", 1.0, 1),
            ("ext3_create", "ext3_add_entry", 1.0, 1),
            ("ext3_create", "ext3_mark_inode_dirty", 1.0, 1),
            ("ext3_unlink", "ext3_find_entry", 1.0, 1),
            ("ext3_unlink", "ext3_delete_entry", 1.0, 1),
            ("ext3_add_entry", "ext3_find_entry", 0.6, 1),
            ("ext3_add_entry", "journal_get_write_access", 0.9, 1),
            ("ext3_delete_entry", "journal_get_write_access", 0.9, 1),
            // --- Block completion into IRQ and wakeups ---
            ("blk_complete_request_entry", "blk_done_softirq", 1.0, 1),
            ("scsi_softirq_done", "scsi_io_completion", 1.0, 1),
            ("scsi_io_completion", "scsi_end_request", 1.0, 1),
            ("scsi_end_request", "__end_that_request_first", 1.0, 1),
            ("scsi_end_request", "scsi_next_command", 0.8, 1),
            ("bio_endio", "end_buffer_read_sync", 0.5, 1),
            ("bio_endio", "__wake_up", 0.7, 1),
            ("end_buffer_read_sync", "unlock_page", 0.8, 1),
            ("unlock_page", "wake_up_page", 0.9, 1),
            // --- IRQ into the scheduler and network stack ---
            ("do_IRQ", "irq_enter", 1.0, 1),
            ("do_IRQ", "handle_irq", 1.0, 1),
            ("do_IRQ", "irq_exit", 1.0, 1),
            ("handle_irq", "handle_edge_irq", 0.7, 1),
            ("handle_edge_irq", "handle_IRQ_event", 0.95, 1),
            ("irq_exit", "do_softirq", 0.4, 1),
            ("do_softirq", "__do_softirq", 1.0, 1),
            ("smp_apic_timer_interrupt", "irq_enter", 1.0, 1),
            (
                "smp_apic_timer_interrupt",
                "local_apic_timer_interrupt",
                1.0,
                1,
            ),
            ("smp_apic_timer_interrupt", "irq_exit", 1.0, 1),
            ("local_apic_timer_interrupt", "hrtimer_interrupt", 1.0, 1),
            ("hrtimer_interrupt", "tick_sched_timer", 0.95, 1),
            ("hrtimer_interrupt", "hrtimer_forward", 0.8, 1),
            ("tick_sched_timer", "update_process_times", 1.0, 1),
            ("update_process_times", "account_system_time", 0.6, 1),
            ("update_process_times", "account_user_time", 0.4, 1),
            ("update_process_times", "run_local_timers", 1.0, 1),
            ("update_process_times", "scheduler_tick", 1.0, 1),
            ("update_process_times", "run_posix_cpu_timers", 0.7, 1),
            ("run_timer_softirq", "__run_timers", 1.0, 1),
            ("__run_timers", "call_timer_fn", 0.6, 2),
            ("net_rx_action", "netif_receive_skb", 0.9, 3),
            ("wakeup_softirqd", "wake_up_process", 1.0, 1),
            ("scheduler_tick", "task_tick_fair", 0.9, 1),
            ("scheduler_tick", "update_rq_clock", 1.0, 1),
            ("task_tick_fair", "entity_tick", 1.0, 2),
            ("entity_tick", "update_curr", 1.0, 1),
            // --- Network receive path ---
            ("netif_receive_skb", "ip_rcv", 0.95, 1),
            ("ip_rcv", "ip_rcv_finish", 1.0, 1),
            ("ip_rcv_finish", "ip_route_input", 1.0, 1),
            ("ip_rcv_finish", "ip_local_deliver", 0.95, 1),
            ("ip_local_deliver", "ip_local_deliver_finish", 1.0, 1),
            ("ip_local_deliver_finish", "tcp_v4_rcv", 0.9, 1),
            ("tcp_v4_rcv", "__inet_lookup_established", 1.0, 1),
            ("tcp_v4_rcv", "tcp_v4_do_rcv", 0.95, 1),
            ("tcp_v4_do_rcv", "tcp_rcv_established", 0.95, 1),
            ("tcp_rcv_established", "tcp_ack", 0.7, 1),
            ("tcp_rcv_established", "tcp_data_queue", 0.8, 1),
            ("tcp_rcv_established", "tcp_fast_path_check", 0.9, 1),
            ("tcp_ack", "tcp_clean_rtx_queue", 0.8, 1),
            ("tcp_data_queue", "sock_def_readable", 0.9, 1),
            ("sock_def_readable", "__wake_up_common", 0.9, 1),
            ("inet_lro_receive_skb", "eth_type_trans", 0.9, 1),
            ("inet_lro_receive_skb", "tcp_parse_options", 0.5, 1),
            ("lro_flush_all", "netif_receive_skb", 0.95, 2),
            // --- Network transmit path ---
            ("tcp_sendmsg", "sk_stream_alloc_skb", 0.8, 2),
            ("tcp_sendmsg", "copy_from_user", 1.0, 2),
            ("tcp_sendmsg", "tcp_push", 0.9, 1),
            ("tcp_push", "__tcp_push_pending_frames", 0.95, 1),
            ("__tcp_push_pending_frames", "tcp_write_xmit", 1.0, 1),
            ("tcp_write_xmit", "tcp_transmit_skb", 0.95, 2),
            ("tcp_transmit_skb", "tcp_established_options", 0.9, 1),
            ("tcp_transmit_skb", "tcp_v4_send_check", 1.0, 1),
            ("tcp_transmit_skb", "ip_queue_xmit", 1.0, 1),
            ("ip_queue_xmit", "ip_local_out", 1.0, 1),
            ("ip_local_out", "ip_output", 1.0, 1),
            ("ip_output", "ip_finish_output", 1.0, 1),
            ("ip_finish_output", "ip_finish_output2", 1.0, 1),
            ("ip_finish_output2", "neigh_resolve_output", 0.7, 1),
            ("ip_finish_output2", "dev_queue_xmit", 1.0, 1),
            ("dev_queue_xmit", "qdisc_run", 0.8, 1),
            ("qdisc_run", "__qdisc_run", 1.0, 1),
            ("__qdisc_run", "pfifo_fast_dequeue", 0.9, 2),
            ("__qdisc_run", "dev_hard_start_xmit", 0.95, 1),
            ("tcp_send_ack", "tcp_transmit_skb", 1.0, 1),
            ("tcp_v4_connect", "ip_route_output_flow", 1.0, 1),
            ("tcp_v4_connect", "inet_ehash_locate", 0.9, 1),
            ("tcp_v4_connect", "tcp_transmit_skb", 1.0, 1),
            ("unix_stream_sendmsg", "sock_alloc_send_skb_edge", 0.0001, 1), // placeholder pruned below
            // --- Unix sockets ---
            ("unix_stream_sendmsg", "alloc_skb", 0.9, 2),
            ("unix_stream_sendmsg", "skb_copy_datagram_iovec", 0.9, 1),
            ("unix_stream_sendmsg", "sock_def_readable", 0.95, 1),
            ("unix_stream_recvmsg", "skb_recv_datagram", 1.0, 1),
            ("unix_stream_recvmsg", "skb_copy_datagram_iovec", 1.0, 1),
            ("skb_recv_datagram", "skb_free_datagram", 0.5, 1),
            ("alloc_skb", "__alloc_skb", 1.0, 1),
            ("kfree_skb", "__kfree_skb", 0.9, 1),
            ("__kfree_skb", "skb_release_data", 1.0, 1),
            ("sock_sendmsg", "security_socket_sendmsg", 1.0, 1),
            ("sock_recvmsg", "security_socket_recvmsg", 1.0, 1),
            // --- Socket polling ---
            ("sock_poll", "tcp_poll", 0.9, 1),
            // --- VFS open/lookup path ---
            ("do_sys_open", "do_filp_open", 1.0, 1),
            ("do_sys_open", "alloc_fd", 1.0, 1),
            ("do_sys_open", "fd_install", 1.0, 1),
            ("do_filp_open", "path_lookup", 1.0, 1),
            ("do_filp_open", "nameidata_to_filp", 0.9, 1),
            ("do_filp_open", "may_open", 0.95, 1),
            ("path_lookup", "do_path_lookup", 1.0, 1),
            ("do_path_lookup", "path_walk", 1.0, 1),
            ("path_walk", "link_path_walk", 1.0, 1),
            ("link_path_walk", "do_lookup", 0.95, 3),
            ("link_path_walk", "permission", 0.9, 2),
            ("do_lookup", "__d_lookup", 1.0, 1),
            ("do_lookup", "follow_mount", 0.3, 1),
            ("__d_lookup", "dget", 0.7, 1),
            ("permission", "generic_permission", 0.7, 1),
            ("permission", "inode_permission", 0.8, 1),
            ("inode_permission", "security_inode_permission", 0.9, 1),
            ("vfs_read", "rw_verify_area", 1.0, 1),
            ("vfs_read", "fget_light", 1.0, 1),
            ("vfs_read", "security_file_permission", 1.0, 1),
            ("vfs_write", "rw_verify_area", 1.0, 1),
            ("vfs_write", "fget_light", 1.0, 1),
            ("vfs_write", "security_file_permission", 1.0, 1),
            ("vfs_write", "file_update_time", 0.7, 1),
            ("filp_close", "fput", 1.0, 1),
            ("fput", "__fput", 0.5, 1),
            ("__fput", "dput", 1.0, 1),
            ("dput", "d_kill", 0.05, 1),
            ("vfs_stat", "path_lookup", 1.0, 1),
            ("vfs_stat", "vfs_getattr", 1.0, 1),
            ("vfs_fstat", "fget_light", 1.0, 1),
            ("vfs_fstat", "vfs_getattr", 1.0, 1),
            ("vfs_getattr", "generic_fillattr", 0.9, 1),
            ("vfs_getattr", "ext3_getattr", 0.5, 1),
            ("vfs_create", "ext3_create", 0.9, 1),
            ("vfs_create", "security_inode_create", 1.0, 1),
            ("vfs_unlink", "ext3_unlink", 0.9, 1),
            ("vfs_unlink", "security_inode_unlink", 1.0, 1),
            ("vfs_mkdir", "ext3_mkdir", 0.9, 1),
            ("vfs_mkdir", "security_inode_mkdir", 1.0, 1),
            ("vfs_rename", "ext3_rename", 0.9, 1),
            ("vfs_readdir", "ext3_readdir", 0.9, 1),
            ("vfs_fsync", "ext3_sync_file", 0.9, 1),
            ("ext3_sync_file", "journal_commit_transaction_step", 0.8, 1),
            ("ext3_lookup", "ext3_find_entry", 1.0, 1),
            // --- select/poll ---
            ("core_sys_select", "do_select", 1.0, 1),
            ("do_select", "fget_light", 0.9, 3),
            ("do_select", "__pollwait", 0.6, 3),
            ("sys_select", "core_sys_select", 0.0001, 1), // pruned (plan wires it)
            // --- Pipes ---
            ("pipe_read", "pipe_wait", 0.4, 1),
            ("pipe_read", "copy_to_user", 0.9, 2),
            ("pipe_read", "__wake_up", 0.8, 1),
            ("pipe_write", "copy_from_user", 0.9, 2),
            ("pipe_write", "__wake_up", 0.9, 1),
            ("pipe_wait", "prepare_to_wait", 1.0, 1),
            ("pipe_wait", "schedule", 0.9, 1),
            ("pipe_wait", "finish_wait", 1.0, 1),
            // --- Locks ---
            ("posix_lock_file", "__posix_lock_file", 1.0, 1),
            ("__posix_lock_file", "locks_alloc_lock", 0.8, 1),
            ("__posix_lock_file", "locks_insert_lock", 0.7, 1),
            ("locks_remove_posix", "locks_delete_lock", 0.8, 1),
            ("fcntl_setlk", "security_file_lock", 0.9, 1),
            ("fcntl_setlk", "posix_lock_file", 0.95, 1),
            // --- Scheduler core ---
            ("schedule", "pick_next_task", 1.0, 1),
            ("schedule", "context_switch", 0.9, 1),
            ("schedule", "update_rq_clock", 1.0, 1),
            ("schedule", "put_prev_task_fair", 0.9, 1),
            ("pick_next_task", "pick_next_task_fair", 0.95, 1),
            ("pick_next_task_fair", "pick_next_entity", 1.0, 1),
            ("pick_next_task_fair", "set_next_entity", 1.0, 1),
            ("context_switch", "prepare_task_switch", 1.0, 1),
            ("context_switch", "switch_mm", 0.7, 1),
            ("context_switch", "__switch_to", 1.0, 1),
            ("context_switch", "finish_task_switch", 1.0, 1),
            ("try_to_wake_up", "task_rq_lock", 1.0, 1),
            ("try_to_wake_up", "activate_task", 0.9, 1),
            ("try_to_wake_up", "check_preempt_curr", 0.9, 1),
            ("try_to_wake_up", "task_rq_unlock", 1.0, 1),
            ("activate_task", "enqueue_task_fair", 1.0, 1),
            ("deactivate_task", "dequeue_task_fair", 1.0, 1),
            ("enqueue_task_fair", "enqueue_entity", 1.0, 2),
            ("dequeue_task_fair", "dequeue_entity", 1.0, 2),
            ("enqueue_entity", "update_curr", 0.95, 1),
            ("enqueue_entity", "__enqueue_entity", 0.95, 1),
            ("enqueue_entity", "place_entity", 0.6, 1),
            ("dequeue_entity", "update_curr", 0.95, 1),
            ("dequeue_entity", "__dequeue_entity", 0.95, 1),
            ("update_curr", "update_min_vruntime", 0.9, 1),
            ("update_curr", "calc_delta_fair", 0.8, 1),
            ("__wake_up", "__wake_up_common", 1.0, 1),
            ("__wake_up_common", "default_wake_function", 0.9, 2),
            ("__wake_up_common", "autoremove_wake_function", 0.4, 1),
            ("default_wake_function", "try_to_wake_up", 1.0, 1),
            ("autoremove_wake_function", "default_wake_function", 1.0, 1),
            ("wake_up_process", "try_to_wake_up", 1.0, 1),
            ("wake_up_new_task", "activate_task", 0.9, 1),
            ("wake_up_new_task", "check_preempt_curr", 0.9, 1),
            ("wait_for_completion", "schedule_timeout", 0.9, 1),
            ("schedule_timeout", "schedule", 0.95, 1),
            ("io_schedule", "schedule", 1.0, 1),
            ("prepare_to_wait", "add_wait_queue", 0.6, 1),
            ("finish_wait", "remove_wait_queue", 0.6, 1),
            // --- Fork/exec/exit verticals ---
            ("do_fork", "copy_process", 1.0, 1),
            ("do_fork", "wake_up_new_task", 0.95, 1),
            ("copy_process", "dup_task_struct", 1.0, 1),
            ("copy_process", "copy_files", 1.0, 1),
            ("copy_process", "copy_fs", 1.0, 1),
            ("copy_process", "copy_mm", 1.0, 1),
            ("copy_process", "copy_sighand", 1.0, 1),
            ("copy_process", "copy_signal", 1.0, 1),
            ("copy_process", "copy_thread", 1.0, 1),
            ("copy_process", "alloc_pid", 1.0, 1),
            ("copy_process", "sched_fork", 1.0, 1),
            ("copy_mm", "dup_mm", 0.9, 1),
            ("dup_mm", "mm_init_fn", 1.0, 1),
            ("dup_mm", "copy_page_range", 1.0, 3),
            ("copy_page_range", "copy_pte_range", 0.95, 3),
            ("copy_pte_range", "copy_one_pte", 0.95, 3),
            ("copy_pte_range", "pte_alloc_one", 0.5, 1),
            ("copy_one_pte", "set_pte_at_fn", 0.9, 1),
            ("do_execve", "search_binary_handler", 1.0, 1),
            ("search_binary_handler", "load_elf_binary", 0.9, 1),
            ("load_elf_binary", "flush_old_exec", 1.0, 1),
            ("load_elf_binary", "setup_arg_pages", 1.0, 1),
            ("load_elf_binary", "do_mmap_pgoff", 0.9, 3),
            ("flush_old_exec", "exit_mmap", 0.9, 1),
            ("do_exit", "exit_mmap", 0.9, 1),
            ("do_exit", "exit_files", 1.0, 1),
            ("do_exit", "exit_fs", 1.0, 1),
            ("do_exit", "exit_sem", 0.8, 1),
            ("do_exit", "exit_notify", 1.0, 1),
            ("do_exit", "schedule", 0.9, 1),
            ("exit_notify", "forget_original_parent", 0.9, 1),
            ("exit_notify", "__exit_signal", 0.9, 1),
            ("release_task", "free_pid", 0.9, 1),
            ("do_wait", "wait_consider_task", 1.0, 2),
            ("wait_consider_task", "wait_task_zombie", 0.6, 1),
            ("wait_task_zombie", "release_task", 0.9, 1),
            ("exit_mmap", "unmap_vmas", 1.0, 1),
            ("unmap_vmas", "zap_page_range", 0.9, 2),
            ("zap_page_range", "zap_pte_range", 0.95, 3),
            ("zap_pte_range", "page_remove_rmap", 0.7, 2),
            ("zap_pte_range", "free_hot_cold_page", 0.5, 2),
            // --- Memory management verticals ---
            ("do_page_fault", "find_vma", 1.0, 1),
            ("do_page_fault", "handle_mm_fault", 0.95, 1),
            ("handle_mm_fault", "__do_fault", 0.5, 1),
            ("handle_mm_fault", "do_anonymous_page", 0.35, 1),
            ("handle_mm_fault", "do_wp_page", 0.15, 1),
            ("handle_mm_fault", "pte_offset_map_lock_fn", 0.9, 1),
            ("__do_fault", "filemap_fault", 0.85, 1),
            ("filemap_fault", "find_get_page", 1.0, 1),
            ("filemap_fault", "page_cache_sync_readahead", 0.1, 1),
            ("do_anonymous_page", "__alloc_pages_internal", 0.9, 1),
            ("do_anonymous_page", "page_add_new_anon_rmap", 0.9, 1),
            ("do_anonymous_page", "lru_cache_add_active", 0.8, 1),
            ("do_wp_page", "__alloc_pages_internal", 0.7, 1),
            ("do_wp_page", "page_remove_rmap", 0.6, 1),
            ("__alloc_pages_internal", "get_page_from_freelist", 1.0, 1),
            ("get_page_from_freelist", "buffered_rmqueue", 0.9, 1),
            ("get_page_from_freelist", "zone_watermark_ok", 1.0, 1),
            ("buffered_rmqueue", "__rmqueue", 0.5, 1),
            ("buffered_rmqueue", "zone_statistics", 0.9, 1),
            ("find_get_page", "radix_tree_lookup", 1.0, 1),
            ("find_lock_page", "radix_tree_lookup", 1.0, 1),
            ("find_lock_page", "__lock_page", 0.2, 1),
            ("add_to_page_cache_lru", "add_to_page_cache_locked", 1.0, 1),
            ("add_to_page_cache_locked", "radix_tree_insert", 1.0, 1),
            ("do_mmap_pgoff", "mmap_region", 0.95, 1),
            ("do_mmap_pgoff", "get_unused_fd_region_probe", 0.0001, 1), // pruned
            ("mmap_region", "vma_link", 0.9, 1),
            ("mmap_region", "vma_merge", 0.6, 1),
            ("mmap_region", "security_file_mmap", 0.9, 1),
            ("do_munmap", "unmap_region", 0.95, 1),
            ("do_munmap", "split_vma", 0.3, 1),
            ("unmap_region", "unmap_vmas", 1.0, 1),
            ("do_brk", "find_vma_prepare", 1.0, 1),
            ("do_brk", "vma_merge", 0.7, 1),
            ("expand_stack", "acct_stack_growth", 0.9, 1),
            // --- Signals ---
            ("force_sig_info", "__send_signal", 0.9, 1),
            ("__send_signal", "signal_wake_up", 0.8, 1),
            ("__send_signal", "__sigqueue_alloc", 0.7, 1),
            ("signal_wake_up", "wake_up_process", 0.7, 1),
            ("get_signal_to_deliver", "dequeue_signal", 1.0, 1),
            ("dequeue_signal", "__dequeue_signal", 1.0, 1),
            ("__dequeue_signal", "collect_signal", 0.9, 1),
            ("dequeue_signal", "recalc_sigpending", 0.9, 1),
            ("handle_signal", "setup_rt_frame", 1.0, 1),
            ("do_sigaction", "recalc_sigpending", 0.5, 1),
            // --- Semaphores ---
            ("do_semtimedop", "sem_lock", 1.0, 1),
            ("do_semtimedop", "try_atomic_semop", 1.0, 1),
            ("do_semtimedop", "update_queue", 0.6, 1),
            ("do_semtimedop", "sem_unlock", 1.0, 1),
            ("do_semtimedop", "security_sem_semop", 0.9, 1),
            ("sem_lock", "ipc_lock", 1.0, 1),
            ("sem_unlock", "ipc_unlock", 1.0, 1),
            ("update_queue", "wake_up_process", 0.5, 1),
            ("try_atomic_semop", "ipcperms", 0.3, 1),
            // --- Slab pressure from network/VFS hot paths ---
            ("__alloc_skb", "kmem_cache_alloc", 1.0, 1),
            ("__alloc_skb", "__kmalloc", 0.9, 1),
            ("skb_release_data", "kfree", 0.9, 1),
            ("get_empty_filp", "kmem_cache_alloc", 1.0, 1),
            ("__fput", "kmem_cache_free", 0.7, 1),
            ("alloc_buffer_head", "kmem_cache_alloc", 1.0, 1),
            ("free_buffer_head", "kmem_cache_free", 1.0, 1),
            ("dup_task_struct", "kmem_cache_alloc", 1.0, 2),
            ("__sigqueue_alloc", "kmem_cache_alloc", 0.9, 1),
            ("__sigqueue_free", "kmem_cache_free", 0.9, 1),
            ("bio_alloc", "kmem_cache_alloc", 0.9, 1),
            ("locks_alloc_lock", "kmem_cache_alloc", 1.0, 1),
            ("pte_alloc_one", "__alloc_pages_internal", 0.9, 1),
            // --- gettimeofday ---
            ("do_gettimeofday", "getnstimeofday", 1.0, 1),
            ("getnstimeofday", "clocksource_read_tsc", 1.0, 1),
            ("ktime_get", "clocksource_read_tsc", 1.0, 1),
            ("sys_gettimeofday", "do_gettimeofday", 0.0001, 1), // pruned (plan wires it)
        ]
    }

    fn wire_cross_edges(
        &self,
        symbols: &SymbolTable,
        sites: &mut Vec<(FunctionId, CallEdge)>,
    ) -> Result<(), KernelError> {
        for &(caller, callee, probability, max_repeats) in self.cross_edges() {
            // Edges with vanishing probability are documentation-only
            // placeholders for paths the op plans wire explicitly; skip
            // them (and tolerate their missing placeholder symbols).
            if probability < 0.001 {
                continue;
            }
            let caller_id = symbols.lookup(caller)?;
            let callee_id = symbols.lookup(callee)?;
            sites.push((
                caller_id,
                CallEdge::new(callee_id, probability, max_repeats),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_builds_with_expected_population() {
        let image = KernelImageBuilder::new().build().unwrap();
        assert_eq!(image.symbols.len(), NUM_KERNEL_FUNCTIONS);
        assert!(image.callgraph.num_edges() > NUM_KERNEL_FUNCTIONS);
    }

    #[test]
    fn image_is_deterministic() {
        let a = KernelImageBuilder::new().build().unwrap();
        let b = KernelImageBuilder::new().build().unwrap();
        assert_eq!(a.symbols.len(), b.symbols.len());
        for (fa, fb) in a.symbols.iter().zip(b.symbols.iter()) {
            assert_eq!(fa, fb);
        }
        assert_eq!(a.callgraph.num_edges(), b.callgraph.num_edges());
    }

    #[test]
    fn different_seeds_differ() {
        let a = KernelImageBuilder::new().build().unwrap();
        let b = KernelImageBuilder::new().seed(99).build().unwrap();
        // Anchors exist in both, filler names will differ somewhere.
        let names_a: Vec<&str> = a.symbols.iter().map(|f| f.name.as_str()).collect();
        let names_b: Vec<&str> = b.symbols.iter().map(|f| f.name.as_str()).collect();
        assert_ne!(names_a, names_b);
    }

    #[test]
    fn graph_is_acyclic() {
        let image = KernelImageBuilder::new().build().unwrap();
        image.callgraph.verify_acyclic(&image.symbols).unwrap();
    }

    #[test]
    fn anchor_entries_resolve() {
        let image = KernelImageBuilder::new().build().unwrap();
        for name in [
            "sys_read",
            "vfs_read",
            "tcp_sendmsg",
            "do_page_fault",
            "schedule",
        ] {
            assert!(image.symbols.lookup(name).is_ok(), "{name} missing");
        }
    }

    #[test]
    fn addresses_are_strictly_increasing_and_kernel_like() {
        let image = KernelImageBuilder::new().build().unwrap();
        let mut prev = 0u64;
        for f in image.symbols.iter() {
            assert!(f.address > prev, "addresses must increase");
            assert!(f.address >= 0xffff_ffff_8100_0000);
            prev = f.address;
        }
    }

    #[test]
    fn subtree_sizes_are_reasonable() {
        // Expected dynamic calls per entry subtree must stay bounded —
        // the walk cost per op is the simulator's main scaling knob.
        let image = KernelImageBuilder::new().build().unwrap();
        for name in [
            "sys_read",
            "vfs_read",
            "tcp_sendmsg",
            "schedule",
            "do_page_fault",
        ] {
            let id = image.symbols.lookup(name).unwrap();
            let calls = image.callgraph.expected_calls(id);
            assert!(calls >= 2.0, "{name}: suspiciously small subtree {calls}");
            assert!(calls <= 2000.0, "{name}: explosive subtree {calls}");
        }
    }

    #[test]
    fn every_op_plan_resolves() {
        let image = KernelImageBuilder::new().build().unwrap();
        for &entry in crate::EntryPoint::ALL {
            assert!(
                image.symbols.lookup(entry.name()).is_ok(),
                "unresolved entry `{}`",
                entry.name()
            );
        }
    }
}
