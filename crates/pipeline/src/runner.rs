//! Launching a pipeline: one thread per node, each bound to a CPU
//! (`placement`), CPIs driven in order, timing collected into a
//! [`PipelineReport`].

use crate::error::PipelineError;
use crate::placement::Placement;
use crate::stage::{Stage, StageCtx};
use crate::timing::{PipelineReport, StageTracer};
use crate::topology::Topology;
use crate::watchdog::{monitor, Heartbeats, WatchdogSpec};
use stap_comm::{CommError, CommWorld};
use stap_trace::ClockSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Builds the per-node [`Stage`] value for a stage; called once per node
/// with the node's local index.
pub type StageFactory = Box<dyn Fn(usize) -> Box<dyn Stage> + Send + Sync>;

/// A runnable pipeline: topology + one factory per stage.
pub struct Pipeline {
    topology: Topology,
    factories: Vec<StageFactory>,
    on_abort: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Pipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    /// Panics when the factory count differs from the stage count.
    pub fn new(topology: Topology, factories: Vec<StageFactory>) -> Self {
        assert_eq!(factories.len(), topology.stage_count(), "one factory per stage required");
        Self { topology, factories, on_abort: None }
    }

    /// Sets a hook the runner calls beside every world abort (a node
    /// failed or a watchdog fired). It ends the waits no message can wake,
    /// such as a front node parked on an empty staging ring.
    pub fn on_abort(&mut self, hook: impl Fn() + Send + Sync + 'static) {
        self.on_abort = Some(Box::new(hook));
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs `cpis` CPIs through the pipeline on real threads and returns
    /// the measured report (with `warmup` leading CPIs excluded from the
    /// steady-state metrics).
    pub fn run(&self, cpis: u64, warmup: u64) -> Result<PipelineReport, PipelineError> {
        self.run_inner(cpis, warmup, None, ClockSpec::Wall)
    }

    /// Fully configured run: optional per-stage watchdog deadlines (a stage
    /// that fails to complete a CPI within its deadline tears the world
    /// down and the run returns [`PipelineError::Timeout`] naming it) plus
    /// an explicit [`ClockSpec`]. Under `ClockSpec::Virtual` every node traces against
    /// its own deterministic clock, making the report's records and spans
    /// bit-reproducible (the golden-trace tests run this way).
    pub fn run_configured(
        &self,
        cpis: u64,
        warmup: u64,
        watchdog: Option<&WatchdogSpec>,
        clocks: ClockSpec,
    ) -> Result<PipelineReport, PipelineError> {
        if let Some(spec) = watchdog {
            assert_eq!(
                spec.deadlines.len(),
                self.topology.stage_count(),
                "one watchdog deadline per stage required"
            );
        }
        self.run_inner(cpis, warmup, watchdog, clocks)
    }

    fn run_inner(
        &self,
        cpis: u64,
        warmup: u64,
        watchdog: Option<&WatchdogSpec>,
        clocks: ClockSpec,
    ) -> Result<PipelineReport, PipelineError> {
        self.topology.validate()?;
        assert!(cpis > warmup, "need more CPIs ({cpis}) than warmup ({warmup})");
        let epoch = Instant::now();
        let topology = &self.topology;
        let factories = &self.factories;
        let n = topology.total_nodes();

        // The endpoints live until every node has joined, so a trailing
        // send (the weight tasks' last, never-consumed sets) always lands.
        let mut endpoints = CommWorld::create(n);
        let placement = Placement::for_run(n);
        let beats = Heartbeats::new(n);
        let monitor_stop = AtomicBool::new(false);
        let stage_of: Vec<(String, usize)> = (0..n)
            .map(|rank| {
                let (stage, _) = topology.locate(rank).expect("every rank belongs to a stage");
                (topology.stage(stage).name.clone(), stage.0)
            })
            .collect();
        let abort = endpoints[0].abort_handle();
        let raise = || {
            abort.trigger();
            if let Some(hook) = &self.on_abort {
                hook();
            }
        };

        type NodeTiming = (Vec<crate::timing::CpiRecord>, Vec<crate::timing::Span>);
        let mut fired = None;
        let results: Vec<Result<NodeTiming, PipelineError>> = std::thread::scope(|scope| {
            let monitor_handle = watchdog.map(|spec| {
                let (beats, stage_of, stop, raise) = (&beats, &stage_of, &monitor_stop, &raise);
                scope.spawn(move || monitor(spec, beats, stage_of, stop, raise))
            });

            let handles: Vec<_> = endpoints
                .iter_mut()
                .map(|ep| {
                    let (beats, placement, raise) = (&beats, &placement, &raise);
                    scope.spawn(move || {
                        let rank = ep.rank();
                        placement.bind(rank);
                        let (stage, local) =
                            topology.locate(rank).expect("every rank belongs to a stage");
                        let mut behavior = factories[stage.0](local);
                        let mut clock =
                            StageTracer::new(stage.0, local, clocks.clock(epoch), cpis as usize);
                        let mut outcome = Ok(());
                        for cpi in 0..cpis {
                            beats.beat(rank, cpi);
                            clock.start_cpi(cpi);
                            let mut ctx = StageCtx {
                                ep: &mut *ep,
                                topology,
                                stage,
                                local,
                                cpi,
                                clock: &mut clock,
                            };
                            outcome = behavior.run_cpi(&mut ctx);
                            clock.end_cpi();
                            if outcome.is_err() {
                                break;
                            }
                        }
                        // The watchdog stops tracking this rank whether
                        // it finished or failed — either way it is no
                        // longer "hung".
                        beats.mark_done(rank);
                        match outcome {
                            // A failing node aborts the world, so peers
                            // blocked in receives wake with `Aborted`
                            // instead of hanging forever.
                            Err(e) => {
                                raise();
                                Err(e)
                            }
                            // Finishing inside an aborted world is
                            // teardown fallout too.
                            Ok(()) if ep.aborted() => Err(CommError::Aborted.into()),
                            Ok(()) => Ok(clock.finish()),
                        }
                    })
                })
                .collect();
            let results =
                handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect();
            monitor_stop.store(true, Ordering::Release);
            fired = monitor_handle.and_then(|m| {
                // The monitor parks until the next possible expiry; wake it
                // to see the stop flag.
                m.thread().unpark();
                m.join().expect("watchdog monitor panicked")
            });
            results
        });

        // Prefer the root-cause error: stage failures first, then
        // communication failures, then a watchdog expiry, with `Aborted`
        // teardown fallout last.
        let rank = |e: &PipelineError| match e {
            PipelineError::Stage { .. }
            | PipelineError::InfrastructureLoss { .. }
            | PipelineError::Topology(_) => 0,
            PipelineError::Comm(c) if *c != CommError::Aborted => 1,
            PipelineError::Timeout { .. } => 2,
            PipelineError::Comm(_) => 3,
        };
        if let Some(err) = results.iter().filter_map(|r| r.as_ref().err()).min_by_key(|e| rank(e)) {
            // Everything failing with bare `Aborted` while the watchdog
            // fired means the expiry *is* the root cause.
            if let (PipelineError::Comm(CommError::Aborted), Some(exp)) = (err, &fired) {
                return Err(PipelineError::Timeout {
                    stage: exp.stage.clone(),
                    deadline_ms: exp.deadline_ms,
                });
            }
            return Err(err.clone());
        }
        let mut per_node = Vec::with_capacity(results.len());
        let total: usize = results.iter().flatten().map(|(_, node_spans)| node_spans.len()).sum();
        let mut spans = Vec::with_capacity(total);
        for r in results {
            let (records, node_spans) = r.expect("errors handled above");
            per_node.push(records);
            spans.extend(node_spans);
        }
        // Ranks are collected in world order, which is (stage, node) order,
        // so the concatenated span list is already deterministic for a
        // deterministic per-node sequence.
        Ok(PipelineReport::new(topology, per_node, spans, cpis, warmup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::Phase;
    use crate::topology::StageId;
    use std::sync::Mutex;

    /// A trivial 3-stage pipeline: source generates `cpi*10 + local`,
    /// middle doubles, sink sums across middle nodes.
    fn arithmetic_pipeline() -> Pipeline {
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let mid = t.add_stage("mid", 2);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, mid);
        t.add_edge(mid, snk);

        let f_src: StageFactory = Box::new(move |_local| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Compute);
                let v = ctx.cpi * 10;
                ctx.phase(Phase::Send);
                for dst in 0..2 {
                    ctx.send_to(StageId(1), dst, 0, v + dst as u64)?;
                }
                Ok(())
            })
        });
        let f_mid: StageFactory = Box::new(move |local| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Recv);
                let v: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                ctx.phase(Phase::Compute);
                let out = v * 2;
                ctx.phase(Phase::Send);
                let _ = local;
                ctx.send_to(StageId(2), 0, 0, out)?;
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(move |_local| {
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.phase(Phase::Recv);
                let a: u64 = ctx.recv_from(StageId(1), 0, 0)?;
                let b: u64 = ctx.recv_from(StageId(1), 1, 0)?;
                ctx.phase(Phase::Compute);
                let sum = a + b;
                // (cpi*10)*2 + (cpi*10+1)*2 = 40*cpi + 2
                assert_eq!(sum, 40 * ctx.cpi + 2);
                Ok(())
            })
        });
        Pipeline::new(t, vec![f_src, f_mid, f_snk])
    }

    #[test]
    fn pipeline_moves_data_correctly() {
        let p = arithmetic_pipeline();
        let report = p.run(5, 1).unwrap();
        assert_eq!(report.cpis, 5);
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.records[1].len(), 2); // two middle nodes
        assert_eq!(report.records[1][0].len(), 5); // five CPIs each
    }

    #[test]
    fn report_metrics_are_positive() {
        let p = arithmetic_pipeline();
        let report = p.run(6, 2).unwrap();
        let latency = report.latency(StageId(0), StageId(2));
        assert!(latency > 0.0);
        let tput = report.throughput(StageId(2));
        assert!(tput > 0.0);
    }

    #[test]
    fn stage_error_propagates() {
        let mut t = Topology::new();
        let _ = t.add_stage("solo", 1);
        let f: StageFactory =
            Box::new(|_| Box::new(|ctx: &mut StageCtx<'_>| Err(ctx.fail("deliberate"))));
        let p = Pipeline::new(t, vec![f]);
        let err = p.run(1, 0).unwrap_err();
        assert!(matches!(err, PipelineError::Stage { .. }));
    }

    #[test]
    #[should_panic(expected = "one factory per stage")]
    fn factory_count_must_match() {
        let mut t = Topology::new();
        t.add_stage("a", 1);
        Pipeline::new(t, vec![]);
    }

    #[test]
    fn mid_pipeline_failure_does_not_hang_downstream() {
        // Source feeds a sink; the source dies on CPI 1 while the sink is
        // blocked waiting for its input. The world abort must wake the
        // sink and surface the root-cause stage error.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                if ctx.cpi >= 1 {
                    return Err(ctx.fail("disk on fire"));
                }
                ctx.send_to(StageId(1), 0, 0, ctx.cpi)?;
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let err = p.run(4, 0).unwrap_err();
        match err {
            PipelineError::Stage { stage, message } => {
                assert_eq!(stage, "src");
                assert!(message.contains("disk on fire"));
            }
            other => panic!("expected the root-cause stage error, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_converts_a_hang_into_a_typed_timeout() {
        use std::time::Duration;
        // The source never sends for CPI >= 1, so the sink blocks forever
        // on its receive; without the watchdog this run would never return.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                if ctx.cpi == 0 {
                    ctx.send_to(StageId(1), 0, 0, ctx.cpi)?;
                }
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let spec = crate::watchdog::WatchdogSpec::uniform(2, Duration::from_millis(100));
        let err = p.run_configured(4, 0, Some(&spec), ClockSpec::Wall).unwrap_err();
        match err {
            PipelineError::Timeout { stage, deadline_ms } => {
                assert_eq!(stage, "snk", "the hung receiver is the root cause");
                assert_eq!(deadline_ms, 100);
            }
            other => panic!("expected a watchdog timeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_blames_the_stalled_source_when_its_consumer_expires_first() {
        use std::time::Duration;
        // The source sends CPI 0 and is held 50 ms before it beats CPI 1,
        // as a descheduled thread would be; the sink beats CPI 1 at once and
        // waits. The sink's beat is older, so it expires first, but the
        // source, where CPI 1 stalled, is named.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                if ctx.cpi == 0 {
                    ctx.send_to(StageId(1), 0, 0, ctx.cpi)?;
                    std::thread::sleep(Duration::from_millis(50));
                    return Ok(());
                }
                while !ctx.ep.aborted() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(CommError::Aborted.into())
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let spec = crate::watchdog::WatchdogSpec::uniform(2, Duration::from_millis(100));
        match p.run_configured(3, 0, Some(&spec), ClockSpec::Wall).unwrap_err() {
            PipelineError::Timeout { stage, .. } => assert_eq!(stage, "src"),
            other => panic!("expected a watchdog timeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        use std::time::Duration;
        let p = arithmetic_pipeline();
        let spec = crate::watchdog::WatchdogSpec::uniform(3, Duration::from_secs(30));
        let report = p.run_configured(5, 1, Some(&spec), ClockSpec::Wall).unwrap();
        assert_eq!(report.cpis, 5);
    }

    #[test]
    fn stage_error_beats_watchdog_expiry_as_root_cause() {
        use std::time::Duration;
        // The failing source triggers the abort itself; even with a very
        // tight watchdog racing it, the surfaced error must stay typed.
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let f_src: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                std::thread::sleep(Duration::from_millis(30));
                Err(ctx.fail("disk on fire"))
            })
        });
        let f_snk: StageFactory = Box::new(|_| {
            Box::new(|ctx: &mut StageCtx<'_>| {
                let _: u64 = ctx.recv_from(StageId(0), 0, 0)?;
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f_src, f_snk]);
        let spec = crate::watchdog::WatchdogSpec::uniform(2, Duration::from_millis(2000));
        match p.run_configured(2, 0, Some(&spec), ClockSpec::Wall).unwrap_err() {
            PipelineError::Stage { stage, .. } => assert_eq!(stage, "src"),
            other => panic!("expected the stage error, got {other:?}"),
        }
    }

    #[test]
    fn virtual_clock_runs_are_bit_reproducible() {
        let run = || {
            let p = arithmetic_pipeline();
            p.run_configured(4, 1, None, ClockSpec::Virtual { tick: 1e-3 }).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records, "virtual-clock records must be identical");
        assert_eq!(a.spans, b.spans, "virtual-clock spans must be identical");
        assert_eq!(a.chrome_trace(), b.chrome_trace(), "chrome export must be byte-stable");
    }

    #[test]
    fn wall_run_collects_spans_for_every_stage() {
        let p = arithmetic_pipeline();
        let report = p.run(4, 1).unwrap();
        for stage in 0..3 {
            assert!(
                report.spans.iter().any(|s| s.stage == stage),
                "stage {stage} produced no spans"
            );
        }
        // Sink never sends: the registry reflects that.
        let reg = report.registry();
        assert!(reg.stats(2, Phase::Send).is_none());
        assert!(reg.stats(1, Phase::Recv).is_some());
    }

    #[test]
    fn node_threads_run_bound_and_the_launcher_stays_free() {
        use crate::placement::allowed_cpus;
        use std::sync::Arc;
        let before = allowed_cpus();
        let mut t = Topology::new();
        t.add_stage("pair", 2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let f: StageFactory = Box::new(move |_| {
            let seen = Arc::clone(&seen2);
            Box::new(move |_ctx: &mut StageCtx<'_>| {
                seen.lock().unwrap().push(allowed_cpus());
                Ok(())
            })
        });
        Pipeline::new(t, vec![f]).run(1, 0).unwrap();
        assert_eq!(allowed_cpus(), before, "a run leaves its caller's CPU set alone");
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 2);
        if before.len() >= 2 {
            // One CPU each, out of the launcher's set, and not the same one.
            assert!(seen.iter().all(|s| s.len() == 1 && before.contains(&s[0])), "{seen:?}");
            assert_ne!(seen[0], seen[1]);
        } else {
            assert!(seen.iter().all(|s| *s == before), "{seen:?}");
        }
    }

    #[test]
    fn a_send_made_after_its_receiver_finished_still_lands() {
        use std::sync::mpsc::{channel, Sender};
        use std::sync::Arc;
        use std::time::Duration;
        // The sink's stage value drops once the node has run its final CPI:
        // that is the handshake telling the source the sink is done.
        struct Sink(Sender<()>);
        impl Stage for Sink {
            fn run_cpi(&mut self, ctx: &mut StageCtx<'_>) -> Result<(), PipelineError> {
                ctx.recv_from::<u64>(StageId(0), 0, 0).map(drop)
            }
        }
        impl Drop for Sink {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let mut t = Topology::new();
        let src = t.add_stage("src", 1);
        let snk = t.add_stage("snk", 1);
        t.add_edge(src, snk);
        let (done_tx, done_rx) = channel();
        let done_rx = Arc::new(Mutex::new(done_rx));
        let f_src: StageFactory = Box::new(move |_| {
            let done = Arc::clone(&done_rx);
            Box::new(move |ctx: &mut StageCtx<'_>| {
                ctx.send_to(StageId(1), 0, 0, ctx.cpi)?;
                if ctx.cpi == 2 {
                    // A trailing send nobody receives, like a weight task's
                    // last set, made only once the sink has finished.
                    let done = done.lock().unwrap().recv_timeout(Duration::from_secs(60));
                    done.expect("the sink finishes its last CPI");
                    ctx.send_to(StageId(1), 0, 1, ctx.cpi)?;
                }
                Ok(())
            })
        });
        let f_snk: StageFactory = Box::new(move |_| Box::new(Sink(done_tx.clone())));
        Pipeline::new(t, vec![f_src, f_snk]).run(3, 0).unwrap();
    }

    #[test]
    fn cpis_run_in_order_per_node() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut t = Topology::new();
        t.add_stage("solo", 1);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let f: StageFactory = Box::new(move |_| {
            let seen = Arc::clone(&seen2);
            Box::new(move |ctx: &mut StageCtx<'_>| {
                assert_eq!(seen.fetch_add(1, Ordering::SeqCst), ctx.cpi);
                Ok(())
            })
        });
        let p = Pipeline::new(t, vec![f]);
        p.run(4, 0).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }
}
