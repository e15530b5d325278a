//! Rename / steer / dispatch stage.
//!
//! §3: instructions are renamed from **one thread per cycle**; the rename
//! selection policy — the resource assignment scheme under study — picks
//! the thread. Each renamed uop is steered to a cluster (dependence +
//! workload balance), checked against the scheme's issue-queue and
//! register-file limits, and dispatched together with any inter-cluster
//! copy uops its operands require.

use super::{pack_iq_meta, DestInfo, Simulator, SrcInfo, UopInit};
use crate::schemes::{RfView, SchedView};
use crate::steering::steer;
use csmt_frontend::FetchedUop;
use csmt_types::uop::RegOperand;
use csmt_types::{ClusterId, MicroOp, OpClass, RegClass, ThreadId, MAX_CLUSTERS};

/// Why a cluster was rejected for a uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Veto {
    /// Issue-queue full or scheme occupancy limit hit (the Figure-4 event
    /// when it happens on the *preferred* cluster).
    IqLimit,
    /// Register-file scheme denial or hard register shortage.
    RegFile(RegClass),
    /// ROB or MOB exhausted.
    Window,
}

impl Simulator {
    /// Dispatch stage entry point. The scheduler and register-file views
    /// are built once and updated incrementally as uops dispatch, instead
    /// of being rebuilt from the queues and register files for every uop.
    pub(crate) fn dispatch(&mut self) {
        let mut view = self.sched_view();
        let mut rf_view = self.rf_view();
        if let Some(t) = self.iq_scheme.select_rename_thread(&view) {
            let ti = t.idx();
            for _ in 0..self.cfg.rename_width {
                let Some(fu) = self.threads[ti].fetchq.peek().copied() else {
                    break;
                };
                if self.try_dispatch(t, &fu, &mut view, &mut rf_view) {
                    self.threads[ti].fetchq.pop();
                    view.fetchq_len[ti] -= 1;
                } else {
                    self.stats.rename_blocked += 1;
                    break;
                }
            }
        }
        // Hand the maintained register-file view to `step` for the
        // schemes' end-of-cycle hook (no later stage touches the files).
        self.rf_view_cycle = rf_view;
    }

    /// Attempt to rename+dispatch one uop; returns success.
    fn try_dispatch(
        &mut self,
        t: ThreadId,
        fu: &FetchedUop,
        view: &mut SchedView,
        rf_view: &mut RfView,
    ) -> bool {
        let u = &fu.uop;

        // Source presence per cluster, from the thread's rename table.
        let mut srcs_buf = [RegOperand::int(0); 2];
        let mut presence_buf = [[false; MAX_CLUSTERS]; 2];
        let mut nsrc = 0usize;
        for s in u.srcs.iter().flatten() {
            let m = self.threads[t.idx()].rename.get(s.class, s.reg);
            debug_assert!(
                m.any_cluster().is_some(),
                "source {:?} of uop @{:#x} has no location",
                s,
                u.pc
            );
            srcs_buf[nsrc] = *s;
            presence_buf[nsrc] = m.present_mask();
            nsrc += 1;
        }
        let srcs = &srcs_buf[..nsrc];
        let presence = &presence_buf[..nsrc];

        let m = self.cfg.num_clusters;
        let mut load = [0usize; MAX_CLUSTERS];
        for (l, iq) in load.iter_mut().zip(self.iqs.iter()).take(m) {
            *l = iq.len();
        }
        let forced = self.iq_scheme.forced_cluster(t);
        let decision = steer(
            presence,
            &load[..m],
            self.cfg.steer_imbalance_threshold,
            forced,
            self.orient,
        );
        let preferred = decision.preferred;
        // Redirect candidates: the preferred cluster first, then the rest
        // in ascending cluster order (a forced binding admits no redirect).
        let mut cand_buf = [preferred; MAX_CLUSTERS];
        let mut ncand = 1usize;
        if forced.is_none() {
            for c in 0..m {
                if c != preferred.idx() {
                    cand_buf[ncand] = ClusterId(c as u8);
                    ncand += 1;
                }
            }
        }
        let candidates = &cand_buf[..ncand];

        for (i, &c) in candidates.iter().enumerate() {
            match self.check_cluster(t, u, srcs, presence, c, view, rf_view) {
                Ok(()) => {
                    if i > 0 {
                        // Redirected away from the preferred cluster —
                        // Figure 4 counts this as an issue-queue stall,
                        // and the feedback layer charges it against the
                        // cluster the steering algorithm wanted.
                        self.stats.iq_stall_events += 1;
                        if let Some(p) = self.perf.as_mut() {
                            p.note_iq_stall(t.idx(), preferred.idx());
                        }
                    }
                    self.do_dispatch(t, fu, srcs, c, view, rf_view);
                    return true;
                }
                Err(veto) => {
                    if i == 0 {
                        match veto {
                            Veto::IqLimit => {
                                self.stats.iq_stall_events += 1;
                                if let Some(p) = self.perf.as_mut() {
                                    p.note_iq_stall(t.idx(), preferred.idx());
                                }
                            }
                            Veto::Window => {
                                if let Some(p) = self.perf.as_mut() {
                                    p.note_window_stall(t.idx());
                                }
                            }
                            Veto::RegFile(_) => {}
                        }
                    }
                    if let Veto::RegFile(class) = veto {
                        self.rf_starved[t.idx()][class.idx()] = true;
                        self.stats.rf_blocked[t.idx()] += 1;
                        if let Some(p) = self.perf.as_mut() {
                            p.note_rf_stall(t.idx(), class);
                        }
                    }
                }
            }
        }
        false
    }

    /// Check whether uop `u` of thread `t` can be dispatched to cluster `c`
    /// right now, including all the copy uops its operands would need.
    #[allow(clippy::too_many_arguments)]
    fn check_cluster(
        &self,
        t: ThreadId,
        u: &MicroOp,
        srcs: &[RegOperand],
        presence: &[[bool; MAX_CLUSTERS]],
        c: ClusterId,
        view: &SchedView,
        rf_view: &RfView,
    ) -> Result<(), Veto> {
        // Scheme occupancy cap and hard capacity of the target queue.
        if self.iq_scheme.headroom(t, c, view) < 1 || self.iqs[c.idx()].is_full() {
            return Err(Veto::IqLimit);
        }

        // Copies needed: sources with no location in `c` (each issues in
        // the cluster holding the value and writes a fresh register of its
        // class in `c`).
        let mut copies = 0usize;
        let mut copies_per_producer = [0usize; MAX_CLUSTERS];
        let mut regs_needed = [0usize; RegClass::COUNT];
        for (s, p) in srcs.iter().zip(presence) {
            if !p[c.idx()] {
                copies += 1;
                regs_needed[s.class.idx()] += 1;
                let producer = p
                    .iter()
                    .position(|&present| present)
                    .expect("unmapped source");
                copies_per_producer[producer] += 1;
            }
        }
        for (producer, &need) in copies_per_producer.iter().enumerate() {
            if need > 0 && self.iqs[producer].len() + need > self.iqs[producer].capacity() {
                // Copies are generated by the rename logic, not steered
                // instructions: they bypass the scheme's occupancy caps (the
                // paper's redirects always proceed, "only incurring extra
                // copies") but still need hard queue slots in the producer
                // cluster.
                return Err(Veto::IqLimit);
            }
        }

        // Destination register: scheme permission + hard capacity.
        if let Some(d) = u.dest {
            if !self.rf_scheme.allows(t, d.class, c, rf_view) {
                return Err(Veto::RegFile(d.class));
            }
            regs_needed[d.class.idx()] += 1;
        }
        for (k, &need) in regs_needed.iter().enumerate() {
            if need > 0 {
                let rf = &self.regfiles[c.idx()][k];
                if !rf.is_unbounded() && rf.free_count() < need {
                    let class = RegClass::all()[k];
                    return Err(Veto::RegFile(class));
                }
            }
        }

        // Window resources: ROB slots for the uop and its copies, MOB entry
        // for memory ops.
        let th = &self.threads[t.idx()];
        if !self.cfg.unbounded_rob && th.rob.len() + copies + 1 > self.cfg.rob_per_thread {
            return Err(Veto::Window);
        }
        if u.class.is_mem() && !self.mob.has_free() {
            return Err(Veto::Window);
        }
        Ok(())
    }

    /// Perform the dispatch planned by `check_cluster` (must succeed),
    /// mirroring every queue insertion and register allocation into the
    /// incrementally-maintained views.
    fn do_dispatch(
        &mut self,
        t: ThreadId,
        fu: &FetchedUop,
        srcs: &[RegOperand],
        c: ClusterId,
        view: &mut SchedView,
        rf_view: &mut RfView,
    ) {
        let u = fu.uop;
        let ti = t.idx();

        // 1. Generate copies for sources absent from `c`, updating the
        //    rename table so later consumers in `c` reuse them.
        let mut resolved: [Option<SrcInfo>; 2] = [None, None];
        for (si, s) in srcs.iter().enumerate() {
            let m = self.threads[ti].rename.get(s.class, s.reg);
            if let Some(p) = m.loc[c.idx()] {
                resolved[si] = Some(SrcInfo {
                    class: s.class,
                    phys: p,
                });
                continue;
            }
            let producer = ClusterId(m.any_cluster().expect("unmapped source") as u8);
            debug_assert_ne!(producer, c);
            let src_phys = m.loc[producer.idx()].unwrap();
            let dest_phys = self.regfiles[c.idx()][s.class.idx()]
                .alloc(t)
                .expect("checked free register for copy");
            rf_view.used[ti][s.class.idx()][c.idx()] += 1;
            let prev = self.threads[ti]
                .rename
                .add_location(s.class, s.reg, c.idx(), dest_phys);
            self.scoreboard.mark_pending(c, s.class, dest_phys);
            let seq = self.threads[ti].seq_next;
            self.threads[ti].seq_next += 1;
            let copy_uop = MicroOp {
                pc: 0,
                class: OpClass::Copy,
                dest: Some(RegOperand {
                    reg: s.reg,
                    class: s.class,
                }),
                srcs: [Some(*s), None],
                mem: None,
                branch: None,
                code_block: u32::MAX,
                is_mrom: false,
            };
            let copy_srcs = [
                Some(SrcInfo {
                    class: s.class,
                    phys: src_phys,
                }),
                None,
            ];
            let id = self.slab.alloc(UopInit {
                uop: copy_uop,
                thread: t,
                seq,
                cluster: producer, // copies issue where the value lives
                wrong_path: fu.wrong_path,
                mispredicted: false,
                is_copy: true,
                dest: Some(DestInfo {
                    class: s.class,
                    log: s.reg,
                    phys: dest_phys,
                    cluster: c,
                    prev,
                    is_copy_mapping: true,
                }),
                srcs: copy_srcs,
                mob: None,
            });
            let ok = self.iqs[producer.idx()].insert_with_meta(
                id,
                t,
                pack_iq_meta(OpClass::Copy, &copy_srcs),
            );
            debug_assert!(ok, "checked copy IQ capacity");
            self.iq_next_scan[producer.idx()] = 0;
            view.iq_occ[ti][producer.idx()] += 1;
            view.rename_to_issue[ti] += 1;
            let ok = self.threads[ti].rob.push(id, seq);
            debug_assert!(ok, "checked copy ROB capacity");
            self.stats.dispatched[producer.idx()] += 1;
            if let Some(log) = self.event_log.as_mut() {
                log.on_dispatch(t, seq, 0, OpClass::Copy, true, self.now);
            }
            self.check_event(|ck, sim| ck.on_dispatch(sim, id));
            resolved[si] = Some(SrcInfo {
                class: s.class,
                phys: dest_phys,
            });
        }

        // 2. Rename the destination.
        let dest = u.dest.map(|d| {
            let phys = self.regfiles[c.idx()][d.class.idx()]
                .alloc(t)
                .expect("checked free destination register");
            rf_view.used[ti][d.class.idx()][c.idx()] += 1;
            let prev = self.threads[ti]
                .rename
                .define(d.class, d.reg, c.idx(), phys);
            self.scoreboard.mark_pending(c, d.class, phys);
            DestInfo {
                class: d.class,
                log: d.reg,
                phys,
                cluster: c,
                prev,
                is_copy_mapping: false,
            }
        });

        // 3. MOB entry for memory operations.
        let seq = self.threads[ti].seq_next;
        self.threads[ti].seq_next += 1;
        let mob = if u.class.is_mem() {
            Some(
                self.mob
                    .alloc(t, u.class == OpClass::Store, seq)
                    .expect("checked MOB capacity"),
            )
        } else {
            None
        };

        // 4. Insert into the window.
        let id = self.slab.alloc(UopInit {
            uop: u,
            thread: t,
            seq,
            cluster: c,
            wrong_path: fu.wrong_path,
            mispredicted: fu.mispredicted,
            is_copy: false,
            dest,
            srcs: resolved,
            mob,
        });
        let ok = self.iqs[c.idx()].insert_with_meta(id, t, pack_iq_meta(u.class, &resolved));
        debug_assert!(ok, "checked IQ capacity");
        self.iq_next_scan[c.idx()] = 0;
        view.iq_occ[ti][c.idx()] += 1;
        view.rename_to_issue[ti] += 1;
        let ok = self.threads[ti].rob.push(id, seq);
        debug_assert!(ok, "checked ROB capacity");
        self.stats.dispatched[c.idx()] += 1;
        if let Some(log) = self.event_log.as_mut() {
            log.on_dispatch(t, seq, u.pc, u.class, false, self.now);
        }
        self.check_event(|ck, sim| ck.on_dispatch(sim, id));
        if fu.mispredicted {
            debug_assert!(self.threads[ti].unresolved_mispredict.is_none());
            self.threads[ti].unresolved_mispredict = Some(id);
        }
    }
}
