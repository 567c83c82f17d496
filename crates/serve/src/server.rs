//! The multi-session server: admission control, the server-wide stats
//! plane, and the per-batch semantics the shard engine
//! ([`crate::shard`]) runs every session through.
//!
//! A session's `World` is born, lives, and dies on one shard thread,
//! because it is deliberately `!Send` (views hold `Rc` handles to the
//! window framebuffer); each shard hosts many sessions behind a
//! poll-style readiness loop. Only the transport halves and the shared
//! counters cross threads, which is the same discipline the paper's
//! window-system connection imposed: the display protocol travels, the
//! application state does not.
//!
//! Every batch goes through [`Server::finish_batch`], so backpressure,
//! shipping, stats replies, and goodbye semantics live in one place;
//! the sharded-vs-single differential oracle
//! (`tests/shard_differential.rs`) proves shard count invisible
//! byte-for-byte.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use atk_collab::{DocRegistry, Op};
use atk_core::ScriptStep;
use atk_trace::{
    snapshot_json, text_summary, Collector, FrameTrace, SlowFrameLog, Snapshot, Stage,
};

use crate::session::{HostedSession, SessionConfig, SessionEnd};
use crate::shard::ShardHandle;
use crate::transport::{FrameTransport, TcpTransport};
use crate::wire::{ClientFrame, ServerFrame, BYE_BYE, BYE_CLOSED, BYE_IDLE};

/// Span-ring capacity of each per-session collector (smaller than the
/// default: N sessions each hold one of these).
pub const SESSION_SPAN_CAPACITY: usize = 1024;

/// Slow-frame dump entries the server retains.
pub const SLOW_LOG_CAPACITY: usize = 256;

/// Retired per-session snapshots (spans included) retained for Chrome
/// trace export when [`ServerConfig::retain_session_traces`] is set.
pub const TRACE_RETAIN_CAP: usize = 128;

/// Server-wide tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent session cap; connections past it get a graceful
    /// `Busy` frame instead of a session.
    pub max_sessions: usize,
    /// Per-session tuning, cloned for every connection.
    pub session: SessionConfig,
    /// When set, every per-session collector runs on a deterministic
    /// manual clock `(start_us, step_us)` instead of wall time — stage
    /// attribution becomes reproducible end to end (golden tests).
    pub manual_clock: Option<(u64, u64)>,
    /// Keep each retired session's full snapshot (spans and all, up to
    /// [`TRACE_RETAIN_CAP`]) so [`Server::trace_parts`] can export one
    /// Chrome-trace track per session even after the connection closed.
    pub retain_session_traces: bool,
    /// Fault-injection knob for the shard readiness loop: when set,
    /// each shard iteration polls its connections in a seeded-shuffled
    /// order instead of admission order, so tests can prove the
    /// dispatch result does not depend on readiness ordering.
    pub readiness_shuffle_seed: Option<u64>,
    /// Fork sessions from pre-warmed per-shard template worlds instead
    /// of building every scene from scratch. On by default; the
    /// `--no-fork` ablation turns it off. Each shard pins its own
    /// template registry to its thread.
    pub fork: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 128,
            session: SessionConfig::default(),
            manual_clock: None,
            retain_session_traces: false,
            readiness_shuffle_seed: None,
            fork: true,
        }
    }
}

/// The shared server state: counters plus config. Cheap to clone into
/// accept threads via `Arc`.
pub struct Server {
    cfg: ServerConfig,
    /// Server-plane collector: admission, session lifecycle, stats
    /// requests. Each session reports into its own collector (see
    /// [`Server::session_snapshots`]); the stats plane merges them.
    collector: Arc<Collector>,
    active: AtomicUsize,
    next_id: AtomicU64,
    /// Live per-session collectors, keyed by session id.
    sessions: Mutex<Vec<(u64, Arc<Collector>)>>,
    /// Accumulated (span-stripped) snapshots of sessions that ended,
    /// so server-wide totals survive session churn.
    retired: Mutex<Snapshot>,
    /// Full retired snapshots kept for trace export (empty unless
    /// [`ServerConfig::retain_session_traces`] is set).
    trace_snaps: Mutex<Vec<(u64, Snapshot)>>,
    /// Shared sink for SLO-violation dumps from every session.
    slow_log: Arc<SlowFrameLog>,
    /// Highest concurrent-session count ever observed
    /// (`serve.peak_sessions`).
    peak: AtomicUsize,
    /// Worker shards, once [`Server::start_shards`] ran.
    shards: Mutex<Vec<ShardHandle>>,
    /// Shared documents (`Attach` sessions), server-wide: replicas on
    /// different shards subscribe to the same registry entry.
    registry: DocRegistry,
}

impl Server {
    /// A server reporting into `collector`.
    pub fn new(cfg: ServerConfig, collector: Arc<Collector>) -> Arc<Server> {
        Arc::new(Server {
            cfg,
            collector,
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(Vec::new()),
            retired: Mutex::new(Snapshot::default()),
            trace_snaps: Mutex::new(Vec::new()),
            slow_log: Arc::new(SlowFrameLog::new(SLOW_LOG_CAPACITY)),
            peak: AtomicUsize::new(0),
            shards: Mutex::new(Vec::new()),
            registry: DocRegistry::new(),
        })
    }

    /// The shared-document registry.
    pub fn registry(&self) -> &DocRegistry {
        &self.registry
    }

    pub(crate) fn cfg(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The server-plane trace collector.
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The shared slow-frame (SLO violation) log.
    pub fn slow_log(&self) -> &Arc<SlowFrameLog> {
        &self.slow_log
    }

    /// Sessions currently live.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Highest concurrent-session count observed so far (also the
    /// `serve.peak_sessions` gauge — loadgen's proof that "N concurrent
    /// sessions" really were concurrent on the server).
    pub fn peak_sessions(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    /// Claims one admission slot and updates the lifecycle counters.
    /// `false` means the server is full: count the reject and send
    /// `Busy`.
    pub(crate) fn try_claim_slot(&self) -> bool {
        let claimed = self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cfg.max_sessions).then_some(n + 1)
            })
            .is_ok();
        if claimed {
            self.collector.count("serve.sessions", 1);
            let now = self.active_sessions();
            let peak = self.peak.fetch_max(now, Ordering::SeqCst).max(now);
            self.collector.gauge("serve.active_sessions", now as i64);
            // Server-plane only: the gauge-summing snapshot merge stays
            // truthful because no session collector ever carries it.
            self.collector.gauge("serve.peak_sessions", peak as i64);
        } else {
            self.collector.count("serve.busy_rejects", 1);
        }
        claimed
    }

    /// Returns an admission slot on any exit path.
    pub(crate) fn release_slot(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.collector
            .gauge("serve.active_sessions", self.active_sessions() as i64);
    }

    /// Allocates the next session id.
    pub(crate) fn next_session_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    fn lock_sessions(&self) -> MutexGuard<'_, Vec<(u64, Arc<Collector>)>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_retired(&self) -> MutexGuard<'_, Snapshot> {
        self.retired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshots of every *live* session's collector, keyed by session
    /// id (one pid/track each in the Chrome multi-export).
    pub fn session_snapshots(&self) -> Vec<(u64, Snapshot)> {
        let live: Vec<(u64, Arc<Collector>)> = self.lock_sessions().clone();
        live.into_iter().map(|(id, c)| (id, c.snapshot())).collect()
    }

    /// Snapshots of every shard-plane collector (`serve.shard.*`
    /// scheduling counters), in shard order. Empty until
    /// [`Server::start_shards`] ran.
    pub fn shard_snapshots(&self) -> Vec<Snapshot> {
        self.lock_shards()
            .iter()
            .map(|s| s.collector().snapshot())
            .collect()
    }

    /// The server-wide view: the server-plane collector merged with
    /// every shard plane, every retired session's accumulated totals,
    /// and every live session's current snapshot. This is what a
    /// `Stats` request and `--stats-every` report.
    pub fn merged_snapshot(&self) -> Snapshot {
        let mut out = self.collector.snapshot();
        for snap in self.shard_snapshots() {
            out.merge(&snap);
        }
        out.merge(&self.lock_retired());
        for (_, snap) in self.session_snapshots() {
            out.merge(&snap);
        }
        out
    }

    /// Labeled snapshot parts for `chrome_trace_json_multi`: the
    /// server plane, the shard planes, then retained retired sessions,
    /// then live ones — one pid/track per part.
    pub fn trace_parts(&self) -> Vec<(String, Snapshot)> {
        let mut parts = vec![("server".to_string(), self.collector.snapshot())];
        for (i, snap) in self.shard_snapshots().into_iter().enumerate() {
            parts.push((format!("shard-{i}"), snap));
        }
        for (id, snap) in self
            .trace_snaps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            parts.push((format!("session-{id}"), snap.clone()));
        }
        for (id, snap) in self.session_snapshots() {
            parts.push((format!("session-{id}"), snap));
        }
        parts
    }

    /// The `Stats` wire reply for the current merged snapshot.
    pub fn stats_reply(&self) -> ServerFrame {
        let merged = self.merged_snapshot();
        ServerFrame::Stats {
            text: text_summary(&merged),
            json: snapshot_json(&merged),
        }
    }

    /// Creates, configures, and registers one session's collector.
    pub(crate) fn open_session_collector(&self, session_id: u64) -> Arc<Collector> {
        let c = Arc::new(Collector::with_capacity(SESSION_SPAN_CAPACITY));
        c.set_enabled(self.collector.is_enabled());
        if let Some((start_us, step_us)) = self.cfg.manual_clock {
            c.set_manual_clock(start_us, step_us);
        }
        self.lock_sessions().push((session_id, c.clone()));
        c
    }

    /// Unregisters a session's collector and folds its final
    /// (span-stripped) snapshot into the retired accumulator, so
    /// `merged_snapshot` totals survive session churn. Every close
    /// path — orderly, error, drain — lands here exactly once.
    pub(crate) fn retire_session(&self, session_id: u64, collector: &Arc<Collector>) {
        let full = collector.snapshot();
        let mut sessions = self.lock_sessions();
        sessions.retain(|(id, _)| *id != session_id);
        drop(sessions);
        self.lock_retired().merge(&full.without_spans());
        if self.cfg.retain_session_traces {
            let mut snaps = self.trace_snaps.lock().unwrap_or_else(|e| e.into_inner());
            if snaps.len() < TRACE_RETAIN_CAP {
                snaps.push((session_id, full));
            }
        }
    }

    /// Builds the session a first frame asks for: a private scene for
    /// `Hello`, a shared-document replica for `Attach` (creating the
    /// document when a scene is offered; creations count into the
    /// server-plane `serve.collab.docs`). The handshake has already
    /// rejected any other first frame.
    pub(crate) fn open_hosted(
        &self,
        first: &ClientFrame,
        collector: Arc<Collector>,
        templates: Option<&mut atk_apps::TemplateRegistry>,
    ) -> Result<HostedSession, String> {
        match first {
            ClientFrame::Hello { scene, backend } => {
                let mut cfg = self.cfg.session.clone();
                if let Some(b) = backend {
                    cfg.backend = b.clone();
                }
                HostedSession::open_with(scene, cfg, collector, templates)
            }
            ClientFrame::Attach { doc_id, scene } => {
                let attachment = self
                    .registry
                    .attach(doc_id, scene.as_deref())
                    .map_err(|e| e.to_string())?;
                if attachment.created() {
                    self.collector.count("serve.collab.docs", 1);
                }
                HostedSession::open_replica(
                    attachment,
                    self.cfg.session.clone(),
                    collector,
                    templates,
                )
            }
            _ => Err("first frame must be hello or attach".to_string()),
        }
    }

    /// Applies shared-document ops drained from an attached session's
    /// subscription and ships the resulting frame. This is how a
    /// replica makes progress with *no* transport traffic of its own.
    /// Returns whether the session ended (`Bye` sent).
    pub(crate) fn pump_doc_ops(
        &self,
        t: &mut dyn FrameTransport,
        session: &mut HostedSession,
        ops: &[Op],
    ) -> Result<bool, Box<dyn std::error::Error>> {
        let mut ft = session.begin_frame();
        let (frame, end) = session.apply_ops_traced(ops, &mut ft);
        ship(t, session, &frame, ft)?;
        if let Some(end) = end {
            self.goodbye(t, end)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Sends the server-side `Bye` for a session-initiated end and
    /// counts idle evictions.
    fn goodbye(&self, t: &mut dyn FrameTransport, end: SessionEnd) -> io::Result<()> {
        let reason = match end {
            SessionEnd::Idle => BYE_IDLE,
            SessionEnd::Closed => BYE_CLOSED,
        };
        if end == SessionEnd::Idle {
            self.collector.count("serve.idle_evictions", 1);
        }
        t.send(
            &ServerFrame::Bye {
                reason: reason.into(),
            }
            .encode(),
        )
    }

    /// Runs one collected batch to completion: backpressure trim,
    /// apply + ship under the frame trace, stats reply, and the goodbye
    /// when the batch (or the client) ended the session. Returns
    /// whether the session is over.
    pub(crate) fn finish_batch(
        &self,
        t: &mut dyn FrameTransport,
        session: &mut HostedSession,
        mut ft: FrameTrace,
        mut batch: Vec<ScriptStep>,
        saw_bye: bool,
        stats_req: bool,
    ) -> Result<bool, Box<dyn std::error::Error>> {
        // Backpressure: a burst beyond the queue cap drops its oldest
        // steps; the drops still advance `seq`.
        let dropped = batch.len().saturating_sub(self.cfg.session.queue_cap);
        if dropped > 0 {
            batch.drain(..dropped);
            session
                .collector()
                .count("serve.backpressure_drops", dropped as u64);
        }

        let mut end_after = None;
        if session.is_attached() {
            // Replicated path: the batch is *submitted* to the shared
            // log, not applied — every edit comes back through the
            // subscription in log order (the author's own included).
            // The drain below therefore already covers catch-up on
            // `Bye`: everything submitted anywhere is on the channel
            // the moment `submit` returns, so the final frame shipped
            // here leaves the client at the converged document state.
            session.submit_batch(&batch, dropped as u64);
            let ops = session.drain_ops();
            if !ops.is_empty() {
                let (frame, end) = session.apply_ops_traced(&ops, &mut ft);
                ship(t, session, &frame, ft)?;
                end_after = end;
            }
        } else if !batch.is_empty() {
            let (frame, end) = session.apply_batch_traced(&batch, dropped as u64, &mut ft);
            ship(t, session, &frame, ft)?;
            end_after = end;
        }
        // A batchless wakeup (lone StatsReq) drops its inert-ish
        // trace: no frame shipped, nothing to attribute.

        if stats_req {
            self.collector.count("serve.stats_requests", 1);
            t.send(&self.stats_reply().encode())?;
        }

        if let Some(end) = end_after {
            self.goodbye(t, end)?;
            return Ok(true);
        }
        if saw_bye {
            t.send(
                &ServerFrame::Bye {
                    reason: BYE_BYE.into(),
                }
                .encode(),
            )?;
        }
        Ok(saw_bye)
    }

    fn lock_shards(&self) -> MutexGuard<'_, Vec<ShardHandle>> {
        self.shards.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts `n` worker shards (idempotent: a no-op when shards are
    /// already running). Shard threads hold only a `Weak` reference
    /// back to the server, so dropping the last external `Arc` (or
    /// calling [`Server::shutdown_shards`]) winds them down.
    pub fn start_shards(self: &Arc<Server>, n: usize) {
        let mut shards = self.lock_shards();
        if !shards.is_empty() {
            return;
        }
        for index in 0..n.max(1) {
            shards.push(ShardHandle::spawn(Arc::downgrade(self), index));
        }
    }

    /// Per-shard connection counts (queued + live), in shard order.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.lock_shards().iter().map(|s| s.load()).collect()
    }

    /// Routes a new connection to the least-loaded shard that is not
    /// draining. `Ok` carries the chosen shard's index; `Err` returns
    /// the transport when no shard can take it (none started, or all
    /// draining/gone) so the caller can send `Busy` itself.
    pub fn admit(&self, t: Box<dyn FrameTransport>) -> Result<usize, Box<dyn FrameTransport>> {
        let shards = self.lock_shards();
        let best = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_draining())
            .min_by_key(|(_, s)| s.load())
            .map(|(i, _)| i);
        match best {
            Some(i) => shards[i].send_conn(t).map(|()| i),
            None => Err(t),
        }
    }

    /// Asks shard `index` to drain: it stops taking new connections,
    /// closes pending handshakes with `Busy`, and says `Bye {drain}` to
    /// its live sessions (every acked frame has already shipped, so
    /// nothing is lost; clients reconnect and land on another shard).
    /// Returns `false` for an unknown index. The shard thread stays up
    /// serving nothing, so shard indices remain stable.
    pub fn drain_shard(&self, index: usize) -> bool {
        match self.lock_shards().get(index) {
            Some(s) => {
                s.drain();
                true
            }
            None => false,
        }
    }

    /// Stops every shard thread: drains each (same goodbye semantics
    /// as [`Server::drain_shard`]) and joins them. Tests and loadgen
    /// call this so shard threads never outlive the measurement.
    pub fn shutdown_shards(&self) {
        let shards = std::mem::take(&mut *self.lock_shards());
        for s in &shards {
            s.shutdown();
        }
        for s in &shards {
            s.join();
        }
        // Fold the scheduling counters into the retired accumulator so
        // `merged_snapshot` keeps them after the threads are gone.
        let mut retired = self.lock_retired();
        for s in &shards {
            retired.merge(&s.collector().snapshot().without_spans());
        }
    }
}

/// Encodes and sends a frame under the `ship` stage stamp, then closes
/// the frame's attribution.
fn ship(
    t: &mut dyn FrameTransport,
    session: &mut HostedSession,
    frame: &ServerFrame,
    mut ft: FrameTrace,
) -> io::Result<()> {
    ft.enter(Stage::Ship);
    let encoded = session.encode_frame(frame);
    t.send(&encoded)?;
    ft.exit();
    session.finish_frame(ft);
    Ok(())
}

/// Accepts connections forever onto `shards` worker shards (started if
/// not already running): the acceptor thread only hands the socket to
/// the least-loaded shard's admission queue; the shard does the
/// handshake and hosts the session. When every shard is draining the
/// acceptor answers `Busy` itself. Returns only on listener failure.
pub fn serve_listener(server: Arc<Server>, listener: TcpListener, shards: usize) -> io::Result<()> {
    server.start_shards(shards);
    loop {
        let (stream, _) = listener.accept()?;
        if let Err(mut t) = server.admit(Box::new(TcpTransport::new(stream))) {
            server.collector().count("serve.busy_rejects", 1);
            let _ = t.send(&ServerFrame::Busy.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemTransport;
    use atk_wm::WindowEvent;

    /// A server with one running shard, reporting into an enabled
    /// collector.
    fn one_shard(cfg: ServerConfig) -> Arc<Server> {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let server = Server::new(cfg, collector);
        server.start_shards(1);
        server
    }

    /// Admits the server half of a fresh pair; returns the client half.
    fn connect(server: &Server) -> MemTransport {
        let (client, server_half) = MemTransport::pair();
        assert!(server.admit(Box::new(server_half)).is_ok(), "no shard");
        client
    }

    fn send(client: &mut MemTransport, frame: ClientFrame) {
        client.send(&frame.encode().unwrap()).unwrap();
    }

    fn hello(scene: &str) -> ClientFrame {
        ClientFrame::Hello {
            scene: scene.into(),
            backend: None,
        }
    }

    fn recv(client: &mut MemTransport) -> ServerFrame {
        ServerFrame::decode(&client.recv().unwrap()).unwrap()
    }

    /// A handshake plus a few steps over the in-memory transport
    /// against a one-shard server.
    #[test]
    fn handshake_steps_and_bye() {
        let server = one_shard(ServerConfig::default());
        let mut client = connect(&server);

        send(&mut client, hello("fig1"));
        let welcome = recv(&mut client);
        assert!(matches!(welcome, ServerFrame::Welcome { .. }));
        let key = recv(&mut client);
        assert!(matches!(key, ServerFrame::Keyframe { seq: 0, .. }));

        send(
            &mut client,
            ClientFrame::Step(ScriptStep::Event(WindowEvent::ch('z'))),
        );
        match recv(&mut client) {
            ServerFrame::Update { seq, .. } | ServerFrame::Keyframe { seq, .. } => {
                assert_eq!(seq, 1)
            }
            other => panic!("unexpected {other:?}"),
        }

        send(&mut client, ClientFrame::Bye);
        assert_eq!(
            recv(&mut client),
            ServerFrame::Bye {
                reason: "bye".into()
            }
        );
        server.shutdown_shards();
        assert_eq!(server.active_sessions(), 0);
    }

    #[test]
    fn admission_control_rejects_with_busy() {
        let server = one_shard(ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        });

        // First session occupies the only slot.
        let mut c1 = connect(&server);
        send(&mut c1, hello("fig1"));
        let _welcome = recv(&mut c1);
        let _key = recv(&mut c1);

        // Second connection is turned away politely.
        let mut c2 = connect(&server);
        send(&mut c2, hello("fig1"));
        assert_eq!(recv(&mut c2), ServerFrame::Busy);

        // After the first leaves, the slot frees up.
        send(&mut c1, ClientFrame::Bye);
        let _bye = recv(&mut c1);
        server.shutdown_shards();
        assert_eq!(server.active_sessions(), 0);
        assert_eq!(
            server.collector().snapshot().counter("serve.busy_rejects"),
            1
        );
    }

    #[test]
    fn burst_past_queue_cap_drops_oldest_and_counts() {
        let server = one_shard(ServerConfig {
            session: SessionConfig {
                queue_cap: 4,
                ..SessionConfig::default()
            },
            ..ServerConfig::default()
        });

        // Preload the whole conversation before the shard ever sees
        // the connection: hello + a 10-step burst + bye. The shard's
        // first drain sees all 10 steps at once and must shed 6.
        let (mut client, server_half) = MemTransport::pair();
        send(&mut client, hello("fig1"));
        for i in 0..10 {
            send(
                &mut client,
                ClientFrame::Step(ScriptStep::Event(WindowEvent::Tick(1 + i))),
            );
        }
        send(&mut client, ClientFrame::Bye);
        assert!(server.admit(Box::new(server_half)).is_ok(), "no shard");

        assert!(matches!(recv(&mut client), ServerFrame::Welcome { .. }));
        assert!(matches!(
            recv(&mut client),
            ServerFrame::Keyframe { seq: 0, .. }
        ));
        // All 10 steps are accounted for (4 applied + 6 dropped) in the
        // one frame the burst ships.
        match recv(&mut client) {
            ServerFrame::Update { seq, .. } | ServerFrame::Keyframe { seq, .. } => {
                assert_eq!(seq, 10)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(recv(&mut client), ServerFrame::Bye { .. }));
        server.shutdown_shards();
        // The drop counter lives on the (now retired) session's
        // collector; the merged server-wide view still carries it.
        assert_eq!(
            server.merged_snapshot().counter("serve.backpressure_drops"),
            6
        );
        assert_eq!(
            server
                .collector()
                .snapshot()
                .counter("serve.backpressure_drops"),
            0,
            "server-plane collector does not own session counters"
        );
    }

    #[test]
    fn unknown_scene_reports_error_and_releases_slot() {
        let server = one_shard(ServerConfig::default());
        let mut client = connect(&server);
        send(&mut client, hello("no-such-scene"));
        let reply = recv(&mut client);
        assert!(matches!(reply, ServerFrame::Error { .. }), "{reply:?}");
        server.shutdown_shards();
        assert_eq!(server.active_sessions(), 0);
    }

    #[test]
    fn garbage_frame_fails_the_connection_without_panicking() {
        let server = one_shard(ServerConfig::default());
        let mut client = connect(&server);
        client.send(&[0xFF, 0x00, 0x37]).unwrap();
        let reply = recv(&mut client);
        assert!(matches!(reply, ServerFrame::Error { .. }));
        server.shutdown_shards();
        assert_eq!(server.merged_snapshot().counter("serve.shard.failures"), 1);
    }
}
