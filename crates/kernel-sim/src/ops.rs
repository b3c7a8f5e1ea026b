/// A kernel-visible operation a workload can issue: a system call, a fault,
/// or an interrupt-context activity.
///
/// Each operation expands into a [plan](KernelOp::stages) of core-kernel
/// *entry* functions with repeat counts; executing the plan walks each
/// entry's call subtree, which is where the signature counts come from.
/// Parameters (byte counts, fd counts, page counts) scale the repeats the
/// way loop bounds scale call counts in a real kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum KernelOp {
    /// The cheapest round trip: `getppid()`.
    SyscallNull,
    /// `read()` of `bytes` from a page-cached file.
    Read {
        /// Bytes transferred.
        bytes: u32,
    },
    /// `write()` of `bytes` to a page-cached (journalled) file.
    Write {
        /// Bytes transferred.
        bytes: u32,
    },
    /// `read()` from `/dev/zero`: VFS only, no page cache or filesystem
    /// (lmbench's "Simple read").
    ReadZero,
    /// `write()` to `/dev/null`: VFS only (lmbench's "Simple write").
    WriteNull,
    /// `open()`+path walk of a `components`-deep path.
    Open {
        /// Path components to walk.
        components: u32,
    },
    /// `close()`.
    Close,
    /// `stat()` (path walk + attribute copy).
    Stat {
        /// Path components to walk.
        components: u32,
    },
    /// `fstat()` on an open fd.
    Fstat,
    /// `lseek()`.
    Lseek,
    /// `select()` on `nfds` descriptors (`tcp` picks the socket poll path,
    /// otherwise pipes are polled).
    Select {
        /// Number of descriptors scanned.
        nfds: u32,
        /// Whether the descriptors are TCP sockets.
        tcp: bool,
    },
    /// `fcntl(F_SETLK)` POSIX lock acquire+release.
    FcntlLock,
    /// `mmap()` of `pages` pages of a file (no faulting).
    Mmap {
        /// Pages mapped.
        pages: u32,
    },
    /// `munmap()` of `pages` pages.
    Munmap {
        /// Pages unmapped.
        pages: u32,
    },
    /// `brk()` heap extension.
    Brk,
    /// A page fault; `major` faults read from the filesystem.
    PageFault {
        /// Whether the fault misses the page cache.
        major: bool,
    },
    /// A write to a read-only page: SIGSEGV delivery path.
    ProtectionFault,
    /// `fork()` copying `pages` worth of page tables.
    Fork {
        /// Page-table pages copied.
        pages: u32,
    },
    /// `execve()` loading a binary with `pages` mapped in.
    Execve {
        /// Pages mapped + faulted during load.
        pages: u32,
    },
    /// `exit()` tearing down `pages` worth of mappings.
    Exit {
        /// Page-table pages torn down.
        pages: u32,
    },
    /// `wait4()` reaping a zombie child.
    Wait,
    /// A full context switch through `schedule()`.
    ContextSwitch,
    /// `sched_yield()`.
    SchedYield,
    /// Blocking read of `bytes` from a pipe.
    PipeRead {
        /// Bytes transferred.
        bytes: u32,
    },
    /// Write of `bytes` into a pipe (waking the reader).
    PipeWrite {
        /// Bytes transferred.
        bytes: u32,
    },
    /// `pipe()` creation.
    PipeCreate,
    /// AF_UNIX stream send of `bytes`.
    UnixSend {
        /// Bytes transferred.
        bytes: u32,
    },
    /// AF_UNIX stream receive of `bytes`.
    UnixRecv {
        /// Bytes transferred.
        bytes: u32,
    },
    /// AF_UNIX `connect()` + server `accept()` handshake.
    UnixConnect,
    /// TCP send of `bytes` (segmentation at ~1448 bytes MSS).
    TcpSend {
        /// Bytes transferred.
        bytes: u32,
    },
    /// TCP receive of `bytes` by the application (`recvmsg` side).
    TcpRecv {
        /// Bytes transferred.
        bytes: u32,
    },
    /// Active TCP `connect()`.
    TcpConnect,
    /// `accept()` of an established connection.
    Accept,
    /// `sendfile()` of `bytes` from page cache to a socket.
    Sendfile {
        /// Bytes transferred.
        bytes: u32,
    },
    /// NET_RX softirq processing `packets` already-queued packets
    /// (the core-kernel half of the receive path; the driver half is a
    /// module op).
    SoftirqNetRx {
        /// Packets delivered up the stack.
        packets: u32,
    },
    /// System-V semaphore operation (semop).
    SemOp,
    /// `sigaction()` handler installation.
    SignalInstall,
    /// Full signal delivery: kill + frame setup + handler + sigreturn.
    SignalDeliver,
    /// `open(O_CREAT)` creating a new file (journalled).
    FileCreate,
    /// `unlink()` of a file (journalled).
    Unlink,
    /// `mkdir()`.
    Mkdir,
    /// `rename()`.
    Rename,
    /// `fsync()` forcing a journal commit.
    Fsync,
    /// `getdents()` over a directory of `entries` entries.
    ReadDir {
        /// Directory entries returned.
        entries: u32,
    },
    /// `gettimeofday()`.
    Gettimeofday,
    /// `ioctl()` (multiplexed misc path).
    Ioctl,
    /// The periodic timer interrupt (fires from the engine, not from
    /// workloads).
    TimerTick,
    /// Block I/O completion interrupt path.
    BlockIrq,
}

// Declares `EntryPoint`, one variant per anchor symbol, named as the
// symbol is.
macro_rules! entry_points {
    ($($name:ident),* $(,)?) => {
        /// A core-kernel anchor function an operation plan enters the call
        /// graph at. Each variant is named as its symbol is, so a kernel
        /// resolves the whole set once, at boot, instead of looking names
        /// up op by op.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EntryPoint {
            $(
                #[doc = concat!("`", stringify!($name), "`")]
                $name,
            )*
        }

        impl EntryPoint {
            /// Every entry point, in declaration order.
            pub(crate) const ALL: &'static [EntryPoint] = &[$(EntryPoint::$name),*];

            const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            /// The anchor's symbol name.
            pub fn name(self) -> &'static str {
                Self::NAMES[self.index()]
            }

            /// Position in [`EntryPoint::ALL`].
            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

entry_points! {
    system_call, sys_getpid, sys_gettimeofday, do_gettimeofday, sys_ioctl, sys_read, vfs_read,
    generic_file_aio_read, sys_write, vfs_write, generic_file_buffered_write, ext3_write_begin,
    ext3_ordered_write_end, sys_open, do_sys_open, do_filp_open, path_lookup, link_path_walk,
    do_lookup, may_open, get_empty_filp, fd_install, sys_close, filp_close, fput, sys_stat,
    vfs_stat, vfs_getattr, cp_new_stat, sys_fstat, vfs_fstat, fget_light, sys_lseek, vfs_llseek,
    generic_file_llseek, sys_select, core_sys_select, do_select, poll_initwait, __pollwait,
    sock_poll, tcp_poll, pipe_poll, poll_freewait, sys_fcntl, do_fcntl, fcntl_setlk,
    posix_lock_file, locks_remove_posix, sys_mmap, do_mmap_pgoff, mmap_region, vma_merge,
    find_vma_prepare, do_page_fault, sys_munmap, do_munmap, unmap_region, zap_pte_range,
    free_hot_cold_page, sys_brk, do_brk, handle_mm_fault, find_vma, filemap_fault,
    page_cache_sync_readahead, ext3_readpage, submit_bio, io_schedule, do_anonymous_page,
    __alloc_pages_internal, force_sig_info, signal_wake_up, sys_fork, do_fork, copy_process,
    dup_task_struct, copy_files, copy_mm, dup_mm, copy_page_range, alloc_pid, sched_fork,
    wake_up_new_task, sys_execve, do_execve, search_binary_handler, load_elf_binary,
    flush_old_exec, exit_mmap, setup_arg_pages, sys_exit_group, do_exit, unmap_vmas, exit_files,
    exit_notify, __exit_signal, sys_wait4, do_wait, wait_task_zombie, release_task, schedule,
    context_switch, __switch_to, sys_sched_yield, pipe_read, pipe_wait, __wake_up, pipe_write,
    sys_pipe, do_pipe_flags, sys_sendmsg, sock_sendmsg, unix_stream_sendmsg, alloc_skb,
    skb_copy_datagram_iovec, sock_def_readable, sys_recvmsg, sock_recvmsg, unix_stream_recvmsg,
    skb_recv_datagram, kfree_skb, sys_connect, unix_stream_connect, unix_create1, unix_accept,
    sys_sendto, tcp_sendmsg, sk_stream_alloc_skb, tcp_push, tcp_write_xmit, sys_recvfrom,
    tcp_recvmsg, tcp_send_ack, __kfree_skb, inet_stream_connect, tcp_v4_connect,
    ip_route_output_flow, tcp_transmit_skb, sys_accept_impl, inet_accept, inet_csk_accept,
    sys_sendfile64, do_sendfile, find_get_page, do_softirq, net_rx_action, netif_receive_skb,
    sys_semop, do_semtimedop, sem_lock, try_atomic_semop, update_queue, sem_unlock,
    sys_rt_sigaction, do_sigaction, recalc_sigpending, sys_kill, __send_signal,
    get_signal_to_deliver, dequeue_signal, handle_signal, setup_rt_frame, sys_rt_sigreturn,
    vfs_create, ext3_create, journal_start, ext3_add_entry, ext3_mark_inode_dirty, journal_stop,
    sys_unlink, vfs_unlink, ext3_unlink, ext3_find_entry, ext3_delete_entry, ext3_orphan_add,
    sys_mkdir, vfs_mkdir, ext3_mkdir, ext3_new_block, sys_rename, vfs_rename, ext3_rename,
    sys_fsync, vfs_fsync, ext3_sync_file, journal_commit_transaction_step,
    journal_write_metadata_buffer, sync_dirty_buffer, submit_bh, sys_getdents, vfs_readdir,
    ext3_readdir, smp_apic_timer_interrupt, irq_enter, local_apic_timer_interrupt,
    hrtimer_interrupt, tick_sched_timer, update_process_times, scheduler_tick, run_timer_softirq,
    irq_exit, do_IRQ, ahci_interrupt_stub, blk_done_softirq, scsi_softirq_done,
    scsi_io_completion, bio_endio
}

/// One step of an operation plan: execute the call subtree rooted at
/// `entry` `repeats` times, each time with probability `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// Anchor function the subtree is rooted at.
    pub entry: EntryPoint,
    /// Number of independent executions of the subtree.
    pub repeats: u32,
    /// Probability that each execution actually happens.
    pub probability: f32,
}

impl Stage {
    const fn new(entry: EntryPoint, repeats: u32) -> Self {
        Stage {
            entry,
            repeats,
            probability: 1.0,
        }
    }

    const fn maybe(entry: EntryPoint, repeats: u32, probability: f32) -> Self {
        Stage {
            entry,
            repeats,
            probability,
        }
    }
}

/// Pages covered by `bytes`, at least one.
fn pages(bytes: u32) -> u32 {
    bytes.div_ceil(4096).max(1)
}

/// TCP segments covered by `bytes` at an MSS of 1448.
fn segments(bytes: u32) -> u32 {
    bytes.div_ceil(1448).max(1)
}

impl KernelOp {
    /// The operation's execution plan, as stages over anchor entry points.
    ///
    /// Plans encode the *vertical* composition of the kernel (syscall →
    /// VFS → filesystem → block, socket → TCP → IP → device): each stage
    /// names the layer's entry anchor, and the call graph supplies the
    /// intra-subsystem fan-out below it.
    pub fn stages(&self) -> Vec<Stage> {
        let mut plan = Vec::new();
        self.plan_into(&mut plan);
        plan
    }

    /// Writes the operation's plan into `plan`, replacing its contents;
    /// a caller that keeps `plan` reuses its buffer from op to op.
    pub(crate) fn plan_into(&self, plan: &mut Vec<Stage>) {
        use EntryPoint::*;
        use KernelOp::*;
        plan.clear();
        match *self {
            SyscallNull => {
                plan.extend_from_slice(&[Stage::new(system_call, 1), Stage::new(sys_getpid, 1)])
            }
            Gettimeofday => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_gettimeofday, 1),
                Stage::new(do_gettimeofday, 1),
            ]),
            Ioctl => {
                plan.extend_from_slice(&[Stage::new(system_call, 1), Stage::new(sys_ioctl, 1)])
            }
            Read { bytes } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_read, 1),
                Stage::new(vfs_read, 1),
                Stage::new(generic_file_aio_read, pages(bytes)),
            ]),
            ReadZero => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_read, 1),
                Stage::new(vfs_read, 1),
            ]),
            WriteNull => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_write, 1),
                Stage::new(vfs_write, 1),
            ]),
            Write { bytes } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_write, 1),
                Stage::new(vfs_write, 1),
                Stage::new(generic_file_buffered_write, pages(bytes)),
                Stage::new(ext3_write_begin, pages(bytes)),
                Stage::new(ext3_ordered_write_end, pages(bytes)),
            ]),
            Open { components } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_open, 1),
                Stage::new(do_sys_open, 1),
                Stage::new(do_filp_open, 1),
                Stage::new(path_lookup, 1),
                Stage::new(link_path_walk, 1),
                Stage::new(do_lookup, components.max(1)),
                Stage::new(may_open, 1),
                Stage::new(get_empty_filp, 1),
                Stage::new(fd_install, 1),
            ]),
            Close => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_close, 1),
                Stage::new(filp_close, 1),
                Stage::new(fput, 1),
            ]),
            Stat { components } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_stat, 1),
                Stage::new(vfs_stat, 1),
                Stage::new(path_lookup, 1),
                Stage::new(do_lookup, components.max(1)),
                Stage::new(vfs_getattr, 1),
                Stage::new(cp_new_stat, 1),
            ]),
            Fstat => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_fstat, 1),
                Stage::new(vfs_fstat, 1),
                Stage::new(fget_light, 1),
                Stage::new(vfs_getattr, 1),
                Stage::new(cp_new_stat, 1),
            ]),
            Lseek => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_lseek, 1),
                Stage::new(vfs_llseek, 1),
                Stage::new(generic_file_llseek, 1),
            ]),
            Select { nfds, tcp } => {
                plan.extend_from_slice(&[
                    Stage::new(system_call, 1),
                    Stage::new(sys_select, 1),
                    Stage::new(core_sys_select, 1),
                    Stage::new(do_select, 1),
                    Stage::new(poll_initwait, 1),
                    Stage::new(fget_light, nfds),
                    Stage::new(__pollwait, nfds),
                ]);
                if tcp {
                    plan.push(Stage::new(sock_poll, nfds));
                    plan.push(Stage::new(tcp_poll, nfds));
                } else {
                    plan.push(Stage::new(pipe_poll, nfds));
                }
                plan.push(Stage::new(poll_freewait, 1));
            }
            FcntlLock => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_fcntl, 1),
                Stage::new(do_fcntl, 1),
                Stage::new(fcntl_setlk, 1),
                Stage::new(posix_lock_file, 1),
                Stage::new(locks_remove_posix, 1),
            ]),
            Mmap { pages } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_mmap, 1),
                Stage::new(do_mmap_pgoff, 1),
                Stage::new(mmap_region, 1),
                Stage::maybe(vma_merge, 1, 0.6),
                Stage::new(find_vma_prepare, 1),
                // Touching the mapping faults pages in.
                Stage::new(do_page_fault, pages),
            ]),
            Munmap { pages } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_munmap, 1),
                Stage::new(do_munmap, 1),
                Stage::new(unmap_region, 1),
                Stage::new(zap_pte_range, pages.div_ceil(8).max(1)),
                Stage::new(free_hot_cold_page, pages),
            ]),
            Brk => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_brk, 1),
                Stage::new(do_brk, 1),
                Stage::maybe(vma_merge, 1, 0.7),
            ]),
            PageFault { major } => {
                plan.extend_from_slice(&[
                    Stage::new(do_page_fault, 1),
                    Stage::new(handle_mm_fault, 1),
                    Stage::new(find_vma, 1),
                ]);
                if major {
                    plan.push(Stage::new(filemap_fault, 1));
                    plan.push(Stage::new(page_cache_sync_readahead, 1));
                    plan.push(Stage::new(ext3_readpage, 1));
                    plan.push(Stage::new(submit_bio, 1));
                    plan.push(Stage::new(io_schedule, 1));
                } else {
                    plan.push(Stage::new(do_anonymous_page, 1));
                    plan.push(Stage::new(__alloc_pages_internal, 1));
                }
            }
            ProtectionFault => plan.extend_from_slice(&[
                Stage::new(do_page_fault, 1),
                Stage::new(find_vma, 1),
                Stage::new(force_sig_info, 1),
                Stage::new(signal_wake_up, 1),
            ]),
            Fork { pages } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_fork, 1),
                Stage::new(do_fork, 1),
                Stage::new(copy_process, 1),
                Stage::new(dup_task_struct, 1),
                Stage::new(copy_files, 1),
                Stage::new(copy_mm, 1),
                Stage::new(dup_mm, 1),
                Stage::new(copy_page_range, pages.max(1)),
                Stage::new(alloc_pid, 1),
                Stage::new(sched_fork, 1),
                Stage::new(wake_up_new_task, 1),
            ]),
            Execve { pages } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_execve, 1),
                Stage::new(do_execve, 1),
                Stage::new(search_binary_handler, 1),
                Stage::new(load_elf_binary, 1),
                Stage::new(flush_old_exec, 1),
                Stage::new(exit_mmap, 1),
                Stage::new(setup_arg_pages, 1),
                Stage::new(do_mmap_pgoff, pages.div_ceil(16).max(1)),
                Stage::new(do_page_fault, pages.max(1)),
            ]),
            Exit { pages } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_exit_group, 1),
                Stage::new(do_exit, 1),
                Stage::new(exit_mmap, 1),
                Stage::new(unmap_vmas, 1),
                Stage::new(zap_pte_range, pages.div_ceil(8).max(1)),
                Stage::new(exit_files, 1),
                Stage::new(exit_notify, 1),
                Stage::new(__exit_signal, 1),
            ]),
            Wait => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_wait4, 1),
                Stage::new(do_wait, 1),
                Stage::new(wait_task_zombie, 1),
                Stage::new(release_task, 1),
            ]),
            ContextSwitch => plan.extend_from_slice(&[
                Stage::new(schedule, 1),
                Stage::new(context_switch, 1),
                Stage::new(__switch_to, 1),
            ]),
            SchedYield => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_sched_yield, 1),
                Stage::new(schedule, 1),
            ]),
            PipeRead { bytes } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_read, 1),
                Stage::new(vfs_read, 1),
                Stage::new(pipe_read, pages(bytes)),
                Stage::maybe(pipe_wait, 1, 0.5),
                Stage::new(__wake_up, 1),
            ]),
            PipeWrite { bytes } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_write, 1),
                Stage::new(vfs_write, 1),
                Stage::new(pipe_write, pages(bytes)),
                Stage::new(__wake_up, 1),
            ]),
            PipeCreate => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_pipe, 1),
                Stage::new(do_pipe_flags, 1),
                Stage::new(get_empty_filp, 2),
                Stage::new(fd_install, 2),
            ]),
            UnixSend { bytes } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_sendmsg, 1),
                Stage::new(sock_sendmsg, 1),
                Stage::new(unix_stream_sendmsg, 1),
                Stage::new(alloc_skb, pages(bytes)),
                Stage::new(skb_copy_datagram_iovec, pages(bytes)),
                Stage::new(sock_def_readable, 1),
            ]),
            UnixRecv { bytes } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_recvmsg, 1),
                Stage::new(sock_recvmsg, 1),
                Stage::new(unix_stream_recvmsg, 1),
                Stage::new(skb_recv_datagram, pages(bytes)),
                Stage::new(skb_copy_datagram_iovec, pages(bytes)),
                Stage::new(kfree_skb, pages(bytes)),
            ]),
            UnixConnect => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_connect, 1),
                Stage::new(unix_stream_connect, 1),
                Stage::new(unix_create1, 1),
                Stage::new(unix_accept, 1),
                Stage::new(sock_def_readable, 1),
            ]),
            TcpSend { bytes } => {
                let segs = segments(bytes);
                plan.extend_from_slice(&[
                    Stage::new(system_call, 1),
                    Stage::new(sys_sendto, 1),
                    Stage::new(sock_sendmsg, 1),
                    Stage::new(tcp_sendmsg, 1),
                    Stage::new(sk_stream_alloc_skb, segs),
                    Stage::new(tcp_push, 1),
                    Stage::new(tcp_write_xmit, segs),
                ])
            }
            TcpRecv { bytes } => {
                let segs = segments(bytes);
                plan.extend_from_slice(&[
                    Stage::new(system_call, 1),
                    Stage::new(sys_recvfrom, 1),
                    Stage::new(sock_recvmsg, 1),
                    Stage::new(tcp_recvmsg, 1),
                    Stage::new(skb_copy_datagram_iovec, segs),
                    Stage::new(tcp_send_ack, segs.div_ceil(2).max(1)),
                    Stage::new(__kfree_skb, segs),
                ])
            }
            TcpConnect => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_connect, 1),
                Stage::new(inet_stream_connect, 1),
                Stage::new(tcp_v4_connect, 1),
                Stage::new(ip_route_output_flow, 1),
                Stage::new(tcp_transmit_skb, 1),
            ]),
            Accept => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_accept_impl, 1),
                Stage::new(inet_accept, 1),
                Stage::new(inet_csk_accept, 1),
                Stage::new(get_empty_filp, 1),
                Stage::new(fd_install, 1),
            ]),
            Sendfile { bytes } => {
                let p = pages(bytes);
                let segs = segments(bytes);
                plan.extend_from_slice(&[
                    Stage::new(system_call, 1),
                    Stage::new(sys_sendfile64, 1),
                    Stage::new(do_sendfile, 1),
                    Stage::new(find_get_page, p),
                    Stage::new(tcp_sendmsg, 1),
                    Stage::new(tcp_write_xmit, segs),
                ])
            }
            SoftirqNetRx { packets } => plan.extend_from_slice(&[
                Stage::new(do_softirq, 1),
                Stage::new(net_rx_action, 1),
                Stage::new(netif_receive_skb, packets.max(1)),
            ]),
            SemOp => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_semop, 1),
                Stage::new(do_semtimedop, 1),
                Stage::new(sem_lock, 1),
                Stage::new(try_atomic_semop, 1),
                Stage::maybe(update_queue, 1, 0.7),
                Stage::new(sem_unlock, 1),
            ]),
            SignalInstall => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_rt_sigaction, 1),
                Stage::new(do_sigaction, 1),
                Stage::new(recalc_sigpending, 1),
            ]),
            SignalDeliver => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_kill, 1),
                Stage::new(__send_signal, 1),
                Stage::new(signal_wake_up, 1),
                Stage::new(get_signal_to_deliver, 1),
                Stage::new(dequeue_signal, 1),
                Stage::new(handle_signal, 1),
                Stage::new(setup_rt_frame, 1),
                Stage::new(sys_rt_sigreturn, 1),
            ]),
            FileCreate => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_open, 1),
                Stage::new(do_sys_open, 1),
                Stage::new(do_filp_open, 1),
                Stage::new(path_lookup, 1),
                Stage::new(vfs_create, 1),
                Stage::new(ext3_create, 1),
                Stage::new(journal_start, 1),
                Stage::new(ext3_add_entry, 1),
                Stage::new(ext3_mark_inode_dirty, 1),
                Stage::new(journal_stop, 1),
            ]),
            Unlink => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_unlink, 1),
                Stage::new(vfs_unlink, 1),
                Stage::new(ext3_unlink, 1),
                Stage::new(journal_start, 1),
                Stage::new(ext3_find_entry, 1),
                Stage::new(ext3_delete_entry, 1),
                Stage::new(ext3_orphan_add, 1),
                Stage::new(journal_stop, 1),
            ]),
            Mkdir => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_mkdir, 1),
                Stage::new(vfs_mkdir, 1),
                Stage::new(ext3_mkdir, 1),
                Stage::new(journal_start, 1),
                Stage::new(ext3_new_block, 1),
                Stage::new(ext3_add_entry, 1),
                Stage::new(journal_stop, 1),
            ]),
            Rename => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_rename, 1),
                Stage::new(vfs_rename, 1),
                Stage::new(ext3_rename, 1),
                Stage::new(journal_start, 1),
                Stage::new(ext3_find_entry, 2),
                Stage::new(ext3_add_entry, 1),
                Stage::new(ext3_delete_entry, 1),
                Stage::new(journal_stop, 1),
            ]),
            Fsync => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_fsync, 1),
                Stage::new(vfs_fsync, 1),
                Stage::new(ext3_sync_file, 1),
                Stage::new(journal_commit_transaction_step, 1),
                Stage::new(journal_write_metadata_buffer, 2),
                Stage::new(sync_dirty_buffer, 2),
                Stage::new(submit_bh, 2),
                Stage::new(io_schedule, 1),
            ]),
            ReadDir { entries } => plan.extend_from_slice(&[
                Stage::new(system_call, 1),
                Stage::new(sys_getdents, 1),
                Stage::new(vfs_readdir, 1),
                Stage::new(ext3_readdir, 1),
                Stage::new(ext3_find_entry, entries.div_ceil(16).max(1)),
            ]),
            TimerTick => plan.extend_from_slice(&[
                Stage::new(smp_apic_timer_interrupt, 1),
                Stage::new(irq_enter, 1),
                Stage::new(local_apic_timer_interrupt, 1),
                Stage::new(hrtimer_interrupt, 1),
                Stage::new(tick_sched_timer, 1),
                Stage::new(update_process_times, 1),
                Stage::new(scheduler_tick, 1),
                Stage::maybe(run_timer_softirq, 1, 0.4),
                Stage::new(irq_exit, 1),
            ]),
            BlockIrq => plan.extend_from_slice(&[
                Stage::new(do_IRQ, 1),
                Stage::new(irq_enter, 1),
                Stage::new(ahci_interrupt_stub, 1),
                Stage::new(blk_done_softirq, 1),
                Stage::new(scsi_softirq_done, 1),
                Stage::new(scsi_io_completion, 1),
                Stage::new(bio_endio, 1),
                Stage::new(__wake_up, 1),
                Stage::new(irq_exit, 1),
            ]),
        }
    }

    /// A short stable name for reports and logs.
    pub fn name(&self) -> &'static str {
        use KernelOp::*;
        match self {
            SyscallNull => "syscall_null",
            Read { .. } => "read",
            Write { .. } => "write",
            ReadZero => "read_zero",
            WriteNull => "write_null",
            Open { .. } => "open",
            Close => "close",
            Stat { .. } => "stat",
            Fstat => "fstat",
            Lseek => "lseek",
            Select { .. } => "select",
            FcntlLock => "fcntl_lock",
            Mmap { .. } => "mmap",
            Munmap { .. } => "munmap",
            Brk => "brk",
            PageFault { .. } => "page_fault",
            ProtectionFault => "protection_fault",
            Fork { .. } => "fork",
            Execve { .. } => "execve",
            Exit { .. } => "exit",
            Wait => "wait",
            ContextSwitch => "context_switch",
            SchedYield => "sched_yield",
            PipeRead { .. } => "pipe_read",
            PipeWrite { .. } => "pipe_write",
            PipeCreate => "pipe_create",
            UnixSend { .. } => "unix_send",
            UnixRecv { .. } => "unix_recv",
            UnixConnect => "unix_connect",
            TcpSend { .. } => "tcp_send",
            TcpRecv { .. } => "tcp_recv",
            TcpConnect => "tcp_connect",
            Accept => "accept",
            Sendfile { .. } => "sendfile",
            SoftirqNetRx { .. } => "softirq_net_rx",
            SemOp => "sem_op",
            SignalInstall => "signal_install",
            SignalDeliver => "signal_deliver",
            FileCreate => "file_create",
            Unlink => "unlink",
            Mkdir => "mkdir",
            Rename => "rename",
            Fsync => "fsync",
            ReadDir { .. } => "readdir",
            Gettimeofday => "gettimeofday",
            Ioctl => "ioctl",
            TimerTick => "timer_tick",
            BlockIrq => "block_irq",
        }
    }

    /// Every operation variant with representative parameters — used by
    /// tests to verify all plans resolve against the symbol table.
    pub fn examples() -> Vec<KernelOp> {
        use KernelOp::*;
        vec![
            SyscallNull,
            Read { bytes: 4096 },
            Write { bytes: 4096 },
            ReadZero,
            WriteNull,
            Open { components: 3 },
            Close,
            Stat { components: 3 },
            Fstat,
            Lseek,
            Select {
                nfds: 10,
                tcp: false,
            },
            Select {
                nfds: 100,
                tcp: true,
            },
            FcntlLock,
            Mmap { pages: 16 },
            Munmap { pages: 16 },
            Brk,
            PageFault { major: false },
            PageFault { major: true },
            ProtectionFault,
            Fork { pages: 32 },
            Execve { pages: 32 },
            Exit { pages: 32 },
            Wait,
            ContextSwitch,
            SchedYield,
            PipeRead { bytes: 512 },
            PipeWrite { bytes: 512 },
            PipeCreate,
            UnixSend { bytes: 1024 },
            UnixRecv { bytes: 1024 },
            UnixConnect,
            TcpSend { bytes: 16384 },
            TcpRecv { bytes: 16384 },
            TcpConnect,
            Accept,
            Sendfile { bytes: 16384 },
            SoftirqNetRx { packets: 8 },
            SemOp,
            SignalInstall,
            SignalDeliver,
            FileCreate,
            Unlink,
            Mkdir,
            Rename,
            Fsync,
            ReadDir { entries: 64 },
            Gettimeofday,
            Ioctl,
            TimerTick,
            BlockIrq,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_has_a_nonempty_plan() {
        for op in KernelOp::examples() {
            let stages = op.stages();
            assert!(!stages.is_empty(), "{} has an empty plan", op.name());
            for s in &stages {
                assert!(
                    s.repeats >= 1,
                    "{}: zero-repeat stage {}",
                    op.name(),
                    s.entry.name()
                );
                assert!(s.probability > 0.0 && s.probability <= 1.0);
            }
        }
    }

    #[test]
    fn byte_parameters_scale_repeats() {
        let small = KernelOp::Read { bytes: 1 }.stages();
        let large = KernelOp::Read { bytes: 64 * 1024 }.stages();
        let total = |ss: &[Stage]| ss.iter().map(|s| s.repeats).sum::<u32>();
        assert!(total(&large) > total(&small));
        // TCP segmentation at MSS granularity.
        let one_seg = KernelOp::TcpSend { bytes: 100 }.stages();
        let many_seg = KernelOp::TcpSend { bytes: 1448 * 10 }.stages();
        assert!(total(&many_seg) >= total(&one_seg) + 9);
    }

    #[test]
    fn select_switches_poll_path() {
        let tcp = KernelOp::Select {
            nfds: 10,
            tcp: true,
        }
        .stages();
        let pipe = KernelOp::Select {
            nfds: 10,
            tcp: false,
        }
        .stages();
        assert!(tcp.iter().any(|s| s.entry == EntryPoint::tcp_poll));
        assert!(!tcp.iter().any(|s| s.entry == EntryPoint::pipe_poll));
        assert!(pipe.iter().any(|s| s.entry == EntryPoint::pipe_poll));
    }

    #[test]
    fn major_fault_reaches_block_layer() {
        let major = KernelOp::PageFault { major: true }.stages();
        let minor = KernelOp::PageFault { major: false }.stages();
        assert!(major.iter().any(|s| s.entry == EntryPoint::submit_bio));
        assert!(!minor.iter().any(|s| s.entry == EntryPoint::submit_bio));
    }

    #[test]
    fn names_are_unique_per_kind() {
        let mut names: Vec<&str> = KernelOp::examples().iter().map(|o| o.name()).collect();
        names.dedup(); // adjacent duplicates only exist for same-kind ops
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert!(set.len() >= 45);
    }
}
