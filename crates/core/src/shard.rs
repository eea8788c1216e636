//! Sharded multi-process execution with hierarchical aggregation.
//!
//! Each round's cohort is split across N shard processes by selection
//! ordinal ([`ShardAssignment`](crate::config::ShardAssignment)), so the
//! shards get equal shares of the round's work. Each shard runs its
//! own [`RoundExecutor`] worker pool plus a shard-local *standalone*
//! [`StreamingAggregator`] that does level-1 arrival/cut bookkeeping only.
//! Every per-client report is forwarded to the root coordinator, which
//! performs the second-level cut by folding reports in **ordinal order** —
//! exactly what the single-process path does — so the merged
//! `(SimTime, ordinal)`-sorted stream (golden trace, round records, final
//! parameters) is byte-identical for any topology.
//!
//! The root owns all durable state: the lazy [`ClientStore`]
//! (hydration/eviction), the selection RNG, the global model, the tracer,
//! and checkpointing. Shards are stateless round servers: a
//! [`WorkItem`] ships `{ordinal, client id, participations, plan,
//! snapshot}` and the child rebuilds the client as `factory.build(id)` +
//! `apply_snapshot` — bit-identical to the root re-hydrating an evicted
//! client. Because of that, a lost shard loses nothing. The failure paths
//! are split by what was observed:
//!
//! * **Crash** (EOF, SIGKILL, protocol violation): the coordinator
//!   synthesizes `Failed` events for the outstanding ordinals — the same
//!   path a worker panic takes — and lazily respawns the process for the
//!   next round that routes work to it.
//! * **Unreachable** (supervision gave up: retry budget or heartbeat limit
//!   exhausted on the [`Link`]): the shard is *quarantined* for the round
//!   and its unresolved ordinals are re-executed on a root-local
//!   [`RoundExecutor`] from the same `WorkItem`s — bit-identical to the
//!   shard having run them, so a flaky transport degrades performance but
//!   never the trajectory.
//!
//! Transport is the supervised [`Link`](crate::transport::Link) over Unix
//! domain sockets: every application frame carries a per-message sequence
//! number and payload checksum ([`fedca_compress::wire`]), is acknowledged
//! by the receiver, resent on ack timeout with deterministic capped
//! exponential backoff, deduplicated by sequence, and delivered strictly
//! in order — exactly-once under any duplicate/reorder schedule. The root
//! side heartbeats each child with Ping/Pong control frames and missed-beat
//! accounting. Frame metadata is JSON (all non-finite-capable floats cross
//! as IEEE bit patterns, because the vendored serde maps non-finite floats
//! to `null`) plus an optional binary payload holding the client's encoded
//! wire update or the broadcast global parameters. Every coordinator wait
//! is bounded: link threads pump events into an mpsc channel, and the
//! coordinator only ever blocks in `recv_timeout`.

use crate::algorithms::Scheme;
use crate::checkpoint::ClientSnapshot;
use crate::client::{ClientOptions, ClientRoundReport, RoundPlan};
use crate::config::FlConfig;
use crate::eager::LayerOutcome;
use crate::executor::{ClientCompletion, ClientDone, ClientWork, RoundCtx, RoundExecutor};
use crate::params::{ModelLayout, UpdateVec};
use crate::population::{apply_snapshot, snapshot_client, ClientFactory};
use crate::server::StreamingAggregator;
use crate::trace::{ClientTraceBuf, PendingEvent, TraceEvent};
use crate::transport::{Link, LinkConfig, LinkError, LinkEvent, LinkRoundStats};
use crate::workload::{Workload, WorkloadSpec};
use bytes::{BufMut, Bytes, BytesMut};
use fedca_compress::wire::{self, Frame, FrameError, Payload, UpdateMessage};
use fedca_data::PartitionSpec;
use fedca_sim::device::DynamicsConfig;
use fedca_sim::faults::{Direction, TransportFaultPlan};
use fedca_sim::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable carrying the coordinator's socket path. Its
/// presence turns a process into a shard child (see [`maybe_run_child`]).
pub const ENV_SOCKET: &str = "FEDCA_SHARD_SOCKET";
/// Environment variable carrying the child's shard id (diagnostics only;
/// the authoritative id arrives in [`ToShard::Init`]).
pub const ENV_SHARD_ID: &str = "FEDCA_SHARD_ID";

/// Errors from the sharded execution layer.
#[derive(Debug)]
pub enum ShardError {
    /// No event arrived within the timeout.
    Timeout,
    /// The pool has been shut down.
    Disconnected,
    /// A shard process could not be spawned or did not connect.
    Spawn(String),
    /// A shard connected but the `Init`/`Hello` handshake did not complete
    /// within [`handshake_timeout`](crate::config::ShardConfig::handshake_timeout).
    Handshake(String),
    /// Socket-level I/O failure.
    Io(std::io::Error),
    /// Frame-layer failure.
    Frame(FrameError),
    /// The peer violated the protocol.
    Protocol(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Timeout => write!(f, "timed out waiting for a shard event"),
            ShardError::Disconnected => write!(f, "shard pool is shut down"),
            ShardError::Spawn(why) => write!(f, "failed to start shard process: {why}"),
            ShardError::Handshake(why) => write!(f, "shard handshake failed: {why}"),
            ShardError::Io(e) => write!(f, "shard socket i/o error: {e}"),
            ShardError::Frame(e) => write!(f, "shard frame error: {e}"),
            ShardError::Protocol(why) => write!(f, "shard protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<FrameError> for ShardError {
    fn from(e: FrameError) -> Self {
        ShardError::Frame(e)
    }
}

impl From<LinkError> for ShardError {
    fn from(e: LinkError) -> Self {
        match e {
            LinkError::Io(e) => ShardError::Io(e),
            LinkError::Serialize(why) => ShardError::Protocol(format!("serialize: {why}")),
            LinkError::Dead(why) => ShardError::Protocol(format!("link dead: {why}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// One client's work assignment, shipped root → shard. The snapshot plus
/// the participation count is everything a stateless child needs to
/// rebuild the exact client state the root checked out.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkItem {
    /// Global round ordinal (position in the selection list).
    pub ord: usize,
    /// Client id.
    pub client_id: usize,
    /// Participation count *after* the root's pre-checkout increment.
    pub participations: usize,
    /// The round plan (all fields finite — JSON-lossless).
    pub plan: RoundPlan,
    /// Durable client state; `None` means "freshly built is exact".
    pub snapshot: Option<ClientSnapshot>,
}

/// Root → shard control messages (frame metadata; `RoundStart` carries the
/// broadcast global parameters as the binary payload, f32 little-endian).
#[derive(Clone, Debug, Serialize, Deserialize)]
// Transient protocol envelopes, one live at a time per connection — the
// size skew between variants is irrelevant and boxing would only churn.
#[allow(clippy::large_enum_variant)]
pub enum ToShard {
    /// Handshake: everything a stateless child needs to rebuild the
    /// federation-wide derivation context.
    Init {
        /// This child's shard id.
        shard_id: usize,
        /// Total number of shards.
        n_shards: usize,
        /// Worker threads per shard.
        n_workers: usize,
        /// Federation hyperparameters.
        fl: FlConfig,
        /// Training scheme.
        scheme: Scheme,
        /// Registry spec the child rebuilds its workload from.
        workload: WorkloadSpec,
    },
    /// Dispatch one round's cohort for this shard.
    RoundStart {
        /// Round index.
        round: usize,
        /// Round start time (f64 bits — `SimTime` is always finite here
        /// but the bits encoding keeps every timestamp field uniform).
        start_bits: u64,
        /// Round deadline (f64 bits).
        deadline_bits: u64,
        /// The cohort.
        items: Vec<WorkItem>,
    },
    /// Clean shutdown: the child exits 0.
    Shutdown,
}

/// A trace event with its bit-exact timestamps (both can be non-finite in
/// principle; bits round-trip through JSON losslessly).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireEvent {
    /// `PendingEvent::time` as f64 bits.
    pub time_bits: u64,
    /// `PendingEvent::host_us` as f64 bits.
    pub host_us_bits: u64,
    /// The event body (fully serde).
    pub event: TraceEvent,
}

impl WireEvent {
    fn from_pending(p: PendingEvent) -> Self {
        WireEvent {
            time_bits: p.time.to_bits(),
            host_us_bits: p.host_us.to_bits(),
            event: p.event,
        }
    }

    fn into_pending(self) -> PendingEvent {
        PendingEvent {
            time: f64::from_bits(self.time_bits),
            host_us: f64::from_bits(self.host_us_bits),
            event: self.event,
        }
    }
}

/// One finished client, shard → root. Mirrors [`ClientRoundReport`] field
/// for field with every non-finite-capable float as IEEE bits. The
/// client's encoded wire update (the exact bytes the in-process path would
/// decode at ingest) travels as the frame's binary payload only when
/// `has_update`; the root validates it structurally and hands the bytes to
/// its aggregator, which decodes them at ingest time. A poisoned update is
/// reconstructed NaN-filled on the root (the ingest re-rejects it by the
/// same predicate — only counts matter) and an infinite-upload update as
/// zeros (stored but never collected).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DoneMsg {
    /// Round index (protocol validation).
    pub round: usize,
    /// Global round ordinal.
    pub ord: usize,
    /// Client id.
    pub client_id: usize,
    /// `report.weight` bits (NaN ⇒ poisoned).
    pub weight_bits: u64,
    /// Iterations completed.
    pub iters_done: usize,
    /// Early-stop flag.
    pub early_stopped: bool,
    /// `report.download_done` bits.
    pub download_done_bits: u64,
    /// `report.compute_done` bits.
    pub compute_done_bits: u64,
    /// `report.upload_done` bits (+inf ⇒ dropped past deadline).
    pub upload_done_bits: u64,
    /// Per-layer eager outcomes.
    pub eager_outcomes: Vec<LayerOutcome>,
    /// `report.bytes_uploaded` bits.
    pub bytes_uploaded_bits: u64,
    /// `report.wire_bytes_uploaded` bits.
    pub wire_bytes_uploaded_bits: u64,
    /// `report.wire_bytes_dense` bits.
    pub wire_bytes_dense_bits: u64,
    /// `report.train_loss` bits (f32; NaN when no iterations ran).
    pub train_loss_bits: u32,
    /// Dropped past the deadline.
    pub dropped: bool,
    /// Crash fault fired.
    pub crashed: bool,
    /// Update/weight contained non-finite values.
    pub poisoned: bool,
    /// Whether the frame payload carries the dense update.
    pub has_update: bool,
    /// Worker reused the thread-local model.
    pub model_reused: bool,
    /// Allocation-avoidance counter from the worker.
    pub allocs_avoided: usize,
    /// Host-side wall time in the worker (f64 bits).
    pub host_us_bits: u64,
    /// The client's trace buffer.
    pub trace: Vec<WireEvent>,
    /// Post-round durable state, applied to the root's checked-out copy.
    pub snapshot: ClientSnapshot,
}

/// Shard → root messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
// Transient protocol envelopes, one live at a time per connection — the
// size skew between variants is irrelevant and boxing would only churn.
#[allow(clippy::large_enum_variant)]
pub enum FromShard {
    /// Connection handshake.
    Hello {
        /// Shard id echoed back.
        shard_id: usize,
    },
    /// One client finished (payload: dense update iff `has_update`).
    Done(DoneMsg),
    /// One client's worker panicked.
    Failed {
        /// Round index.
        round: usize,
        /// Global round ordinal.
        ord: usize,
        /// Client id.
        client_id: usize,
        /// Panic message.
        panic_msg: String,
    },
    /// The shard's level-1 cut summary for the round (diagnostics; the
    /// root's ordinal-order fold is the source of truth).
    RoundDone {
        /// Round index.
        round: usize,
        /// Clients resolved (completed + failed).
        n_resolved: usize,
        /// Finite arrivals in the shard-local cut.
        n_finite: usize,
        /// Shard-local provisional completion time (f64 bits; +inf when
        /// no finite arrivals).
        provisional_bits: u64,
    },
}

// ---------------------------------------------------------------------------
// Transport helpers
// ---------------------------------------------------------------------------

/// Parses a link-delivered frame's JSON metadata into a protocol message.
fn parse_meta<T: serde::Deserialize>(frame: &Frame) -> Result<T, ShardError> {
    let meta = std::str::from_utf8(frame.meta.as_ref())
        .map_err(|_| ShardError::Protocol("frame metadata is not utf-8".into()))?;
    serde_json::from_str::<T>(meta)
        .map_err(|e| ShardError::Protocol(format!("bad frame metadata: {e}")))
}

/// Encodes a finite dense update as a wire payload (all layers dense).
fn encode_update(round: usize, client: usize, update: &UpdateVec) -> Bytes {
    let layout = update.layout();
    let layers = (0..layout.num_layers())
        .map(|l| (l as u32, Payload::Dense(update.layer(l).to_vec())))
        .collect();
    wire::encode(&UpdateMessage {
        round: round as u32,
        client: client as u32,
        layers,
    })
}

/// Structurally validates a forwarded update payload against the layout:
/// one or more concatenated [`wire`] messages whose layer segments tile the
/// flat parameter vector exactly — the same checks the root aggregator's
/// ingest-time decode applies, so a payload that passes here is guaranteed
/// to decode into the arena rather than fall back to a (zeroed, wrong)
/// dense vector. Values are *not* decoded here.
fn validate_update_payload(layout: &Arc<ModelLayout>, payload: &Bytes) -> Result<(), ShardError> {
    let buf = payload.as_ref();
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(layout.num_layers());
    let mut pos = 0usize;
    while pos < buf.len() {
        let mut reader = wire::MessageReader::new(&buf[pos..])
            .map_err(|e| ShardError::Protocol(format!("bad update payload: {e}")))?;
        while let Some(layer) = reader.next_layer() {
            let (id, view) =
                layer.map_err(|e| ShardError::Protocol(format!("bad update payload: {e}")))?;
            let l = id as usize;
            if l >= layout.num_layers() {
                return Err(ShardError::Protocol(format!(
                    "update payload has layer id {id}, layout has {} layers",
                    layout.num_layers()
                )));
            }
            let range = layout.range(l);
            if view.len() != range.len() {
                return Err(ShardError::Protocol(format!(
                    "update payload layer {l} has {} values, expected {}",
                    view.len(),
                    range.len()
                )));
            }
            ranges.push(range);
        }
        pos += reader.consumed();
    }
    ranges.sort_by_key(|r| r.start);
    let mut covered = 0usize;
    for r in &ranges {
        if r.start != covered {
            return Err(ShardError::Protocol(
                "update payload does not tile the parameter vector".into(),
            ));
        }
        covered = r.end;
    }
    if covered != layout.total_params() {
        return Err(ShardError::Protocol(
            "update payload does not cover the parameter vector".into(),
        ));
    }
    Ok(())
}

/// Rebuilds the root-side [`ClientRoundReport`] from a [`DoneMsg`] and its
/// frame payload. Bit-identical to the in-process report for every field
/// the round loop reads.
pub fn report_from_done(
    layout: &Arc<ModelLayout>,
    msg: &DoneMsg,
    payload: &Bytes,
) -> Result<ClientRoundReport, ShardError> {
    let (update, wire_update) = if msg.has_update {
        if payload.is_empty() {
            return Err(ShardError::Protocol("missing update payload".into()));
        }
        validate_update_payload(layout, payload)?;
        // The dense vector stays zeroed: the root aggregator decodes the
        // validated wire bytes into its arena at ingest, bit-identically
        // to the in-process path, and never reads the dense fallback.
        (UpdateVec::zeros(layout.clone()), Some(payload.clone()))
    } else if msg.poisoned {
        // Reconstructed NaN-filled: the root's ingest re-rejects it via
        // the identical predicate, so only the poison *fact* must travel.
        (
            UpdateVec::from_vec(layout.clone(), vec![f32::NAN; layout.total_params()]),
            None,
        )
    } else {
        // Infinite upload: stored but never collected; values never read.
        (UpdateVec::zeros(layout.clone()), None)
    };
    Ok(ClientRoundReport {
        client_id: msg.client_id,
        weight: f64::from_bits(msg.weight_bits),
        update,
        wire_update,
        iters_done: msg.iters_done,
        early_stopped: msg.early_stopped,
        download_done: f64::from_bits(msg.download_done_bits),
        compute_done: f64::from_bits(msg.compute_done_bits),
        upload_done: f64::from_bits(msg.upload_done_bits),
        eager_outcomes: msg.eager_outcomes.clone(),
        bytes_uploaded: f64::from_bits(msg.bytes_uploaded_bits),
        wire_bytes_uploaded: f64::from_bits(msg.wire_bytes_uploaded_bits),
        wire_bytes_dense: f64::from_bits(msg.wire_bytes_dense_bits),
        train_loss: f32::from_bits(msg.train_loss_bits),
        dropped: msg.dropped,
        crashed: msg.crashed,
        trace: ClientTraceBuf::from_events(
            msg.trace
                .iter()
                .cloned()
                .map(WireEvent::into_pending)
                .collect(),
        ),
    })
}

// ---------------------------------------------------------------------------
// Shared execution world
// ---------------------------------------------------------------------------

/// Everything needed to rebuild and run clients from [`WorkItem`]s. Built
/// once per shard child — and lazily on the root for quarantine-driven
/// local re-execution, which must be bit-identical to the shard path.
struct ShardWorld {
    factory: ClientFactory,
    workload: Workload,
    layout: Arc<ModelLayout>,
    opts: ClientOptions,
}

fn build_world(
    fl: &FlConfig,
    scheme: &Scheme,
    spec: &WorkloadSpec,
) -> Result<ShardWorld, ShardError> {
    let workload = spec
        .build()
        .ok_or_else(|| ShardError::Protocol(format!("unknown workload spec {:?}", spec)))?;
    let model = (workload.model_factory)();
    let layout = Arc::new(ModelLayout::from_spans(model.spans()));
    drop(model);
    let opts = scheme.client_options();
    let dynamics = if fl.dynamicity {
        DynamicsConfig::paper()
    } else {
        DynamicsConfig::static_device()
    };
    let partition = PartitionSpec::new(
        workload.train.labels(),
        fl.n_clients,
        fl.dirichlet_alpha,
        fl.seed,
    );
    let factory = ClientFactory {
        fl: fl.clone(),
        dynamics,
        layout: layout.clone(),
        max_samples: scheme.max_samples_per_layer(),
        partition,
    };
    Ok(ShardWorld {
        factory,
        workload,
        layout,
        opts,
    })
}

/// Converts one completed client into the wire `DoneMsg` + payload. Used
/// verbatim by the shard child and by the root's quarantine re-execution
/// path, so both produce bit-identical messages for the same completion.
fn done_msg_from_completion(round: usize, done: &mut ClientCompletion) -> (DoneMsg, Option<Bytes>) {
    let trace: Vec<WireEvent> = std::mem::take(&mut done.report.trace)
        .into_events()
        .into_iter()
        .map(WireEvent::from_pending)
        .collect();
    let r = &done.report;
    let poisoned = !r.weight.is_finite() || r.update.as_slice().iter().any(|v| !v.is_finite());
    let has_update = !poisoned && r.upload_done.is_finite();
    // Forward the client's own encoded wire bytes (final message plus
    // eager sidecar) so the root can decode — and for quantized payloads,
    // fused-fold — them exactly as the in-process path would. Fall back to
    // a dense encoding for reports that carry no wire form.
    let payload = has_update.then(|| {
        r.wire_update
            .clone()
            .unwrap_or_else(|| encode_update(round, r.client_id, &r.update))
    });
    let msg = DoneMsg {
        round,
        ord: done.ord,
        client_id: r.client_id,
        weight_bits: r.weight.to_bits(),
        iters_done: r.iters_done,
        early_stopped: r.early_stopped,
        download_done_bits: r.download_done.to_bits(),
        compute_done_bits: r.compute_done.to_bits(),
        upload_done_bits: r.upload_done.to_bits(),
        eager_outcomes: r.eager_outcomes.clone(),
        bytes_uploaded_bits: r.bytes_uploaded.to_bits(),
        wire_bytes_uploaded_bits: r.wire_bytes_uploaded.to_bits(),
        wire_bytes_dense_bits: r.wire_bytes_dense.to_bits(),
        train_loss_bits: r.train_loss.to_bits(),
        dropped: r.dropped,
        crashed: r.crashed,
        poisoned,
        has_update,
        model_reused: done.model_reused,
        allocs_avoided: done.allocs_avoided,
        host_us_bits: done.host_us.to_bits(),
        trace,
        snapshot: snapshot_client(&done.client),
    };
    (msg, payload)
}

// ---------------------------------------------------------------------------
// Shard child
// ---------------------------------------------------------------------------

/// If this process was launched as a shard child (the [`ENV_SOCKET`]
/// variable is set), runs the shard server to completion and returns
/// `true` — the caller should then return from `main` immediately.
/// Exits the process with status 70 on a protocol or I/O error.
pub fn maybe_run_child() -> bool {
    let path = match std::env::var(ENV_SOCKET) {
        Ok(p) if !p.is_empty() => p,
        _ => return false,
    };
    if let Err(e) = run_child(&path) {
        let id = std::env::var(ENV_SHARD_ID).unwrap_or_else(|_| "?".into());
        eprintln!("fedca shard child {id}: fatal: {e}");
        std::process::exit(70);
    }
    true
}

/// Receives the next in-order application message from the child's link.
/// `Ok(None)` on clean EOF (the coordinator closed the connection).
fn recv_link(rx: &Receiver<LinkEvent>) -> Result<Option<(ToShard, Bytes)>, ShardError> {
    match rx.recv() {
        Err(_) => Err(ShardError::Disconnected),
        Ok(LinkEvent::Frame(frame)) => {
            let msg = parse_meta::<ToShard>(&frame)?;
            Ok(Some((msg, frame.payload)))
        }
        Ok(LinkEvent::Down(reason)) => {
            if reason == "connection closed" {
                Ok(None)
            } else {
                Err(ShardError::Protocol(format!("link down: {reason}")))
            }
        }
        // Unreachable in practice: the child link has an unlimited retry
        // budget and never initiates heartbeats.
        Ok(LinkEvent::PeerDead(reason)) => {
            Err(ShardError::Protocol(format!("link dead: {reason}")))
        }
    }
}

fn run_child(path: &str) -> Result<(), ShardError> {
    let stream = UnixStream::connect(path)?;
    let shard_hint: usize = std::env::var(ENV_SHARD_ID)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let round = Arc::new(AtomicU64::new(0));
    let (tx, rx) = channel::<LinkEvent>();
    let sink = {
        // `Sender` is Send but not Sync; the link calls the sink from two
        // threads, so serialize through a mutex.
        let tx = Mutex::new(tx);
        move |ev: LinkEvent| {
            let _ = tx.lock().send(ev);
        }
    };
    let link = Link::new(
        stream,
        LinkConfig::child_handshake(shard_hint, round.clone()),
        sink,
    )?;

    let (init, _) = recv_link(&rx)?
        .ok_or_else(|| ShardError::Protocol("coordinator closed before Init".into()))?;
    let (shard_id, n_workers, fl, scheme, spec) = match init {
        ToShard::Init {
            shard_id,
            n_workers,
            fl,
            scheme,
            workload,
            ..
        } => (shard_id, n_workers, fl, scheme, workload),
        other => {
            return Err(ShardError::Protocol(format!(
                "expected Init, got {other:?}"
            )))
        }
    };
    link.configure(
        TransportFaultPlan::new(fl.shard.transport_faults.clone()),
        fl.shard.max_frame_len(),
        fl.shard.resend_initial(),
        fl.shard.resend_max(),
    );
    // Hello goes out *before* the world build so the coordinator's
    // handshake timeout bounds transport latency only, never model or
    // dataset construction time.
    link.send(&FromShard::Hello { shard_id }, None)?;

    let world = build_world(&fl, &scheme, &spec)?;
    let executor = RoundExecutor::new(n_workers);

    loop {
        match recv_link(&rx)? {
            None | Some((ToShard::Shutdown, _)) => return Ok(()),
            Some((ToShard::Init { .. }, _)) => {
                return Err(ShardError::Protocol("duplicate Init".into()))
            }
            Some((
                ToShard::RoundStart {
                    round: r,
                    start_bits,
                    deadline_bits,
                    items,
                },
                global_payload,
            )) => {
                round.store(r as u64, Ordering::Relaxed);
                run_child_round(
                    &link,
                    &executor,
                    &world,
                    &fl,
                    r,
                    f64::from_bits(start_bits),
                    f64::from_bits(deadline_bits),
                    items,
                    &global_payload,
                )?;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_child_round(
    link: &Link,
    executor: &RoundExecutor,
    world: &ShardWorld,
    fl: &FlConfig,
    round: usize,
    start: SimTime,
    deadline: SimTime,
    items: Vec<WorkItem>,
    global_payload: &Bytes,
) -> Result<(), ShardError> {
    let n = items.len();
    if n == 0 {
        link.send(
            &FromShard::RoundDone {
                round,
                n_resolved: 0,
                n_finite: 0,
                provisional_bits: f64::INFINITY.to_bits(),
            },
            None,
        )?;
        return Ok(());
    }

    let layout = &world.layout;
    if global_payload.len() != 4 * layout.total_params() {
        return Err(ShardError::Protocol(format!(
            "global payload is {} bytes, expected {}",
            global_payload.len(),
            4 * layout.total_params()
        )));
    }
    let mut global = Vec::with_capacity(layout.total_params());
    for chunk in global_payload.as_ref().chunks_exact(4) {
        global.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }

    let ctx = Arc::new(RoundCtx {
        layout: layout.clone(),
        workload: world.workload.clone(),
        fl: fl.clone(),
        opts: world.opts.clone(),
        global,
    });

    // Level-1 bookkeeping only: this aggregator is never closed; the root
    // folds every report in global ordinal order.
    let mut agg = StreamingAggregator::standalone(start, n, fl.aggregation_fraction);
    agg.set_deadline(deadline);

    // Map global ordinals to local (dense) aggregator slots.
    let mut local_ord = HashMap::with_capacity(n);
    for (li, item) in items.iter().enumerate() {
        local_ord.insert(item.ord, li);
        let mut client = world.factory.build(item.client_id);
        if let Some(snap) = &item.snapshot {
            apply_snapshot(&mut client, snap);
        }
        client.participations = item.participations;
        executor
            .submit(ClientWork {
                ord: item.ord,
                client,
                plan: item.plan.clone(),
                ctx: ctx.clone(),
            })
            .map_err(|e| ShardError::Protocol(format!("executor rejected work: {e}")))?;
    }

    // The executor resolves clients in host completion order, which is
    // nondeterministic under a multi-worker pool. The wire order must not
    // be: the root's deterministic kill plans count consumed events per
    // shard, so completions are buffered and emitted in ascending ordinal
    // order. The trajectory itself never depends on arrival order (the
    // root folds at the cut in ordinal order), so this only pins the one
    // thing that does — chaos-test kill points.
    let mut remaining: BTreeMap<usize, ()> = items.iter().map(|i| (i.ord, ())).collect();
    let mut unsent: BTreeMap<usize, (FromShard, Option<Bytes>)> = BTreeMap::new();
    for _ in 0..n {
        match executor
            .recv()
            .map_err(|e| ShardError::Protocol(format!("executor died: {e}")))?
        {
            ClientDone::Completed(mut done) => {
                let li = *local_ord
                    .get(&done.ord)
                    .ok_or_else(|| ShardError::Protocol("executor returned unknown ord".into()))?;
                let (msg, payload) = done_msg_from_completion(round, &mut done);
                unsent.insert(msg.ord, (FromShard::Done(msg), payload));
                agg.ingest(li, done.report);
            }
            ClientDone::Failed(fail) => {
                let li = *local_ord
                    .get(&fail.ord)
                    .ok_or_else(|| ShardError::Protocol("executor failed unknown ord".into()))?;
                agg.mark_failed(li);
                unsent.insert(
                    fail.ord,
                    (
                        FromShard::Failed {
                            round,
                            ord: fail.ord,
                            client_id: fail.client_id,
                            panic_msg: fail.panic_msg,
                        },
                        None,
                    ),
                );
            }
        }
        while let Some((&first, ())) = remaining.iter().next() {
            let Some((msg, payload)) = unsent.remove(&first) else {
                break;
            };
            remaining.remove(&first);
            link.send(&msg, payload)?;
        }
    }

    let n_finite = agg.finite_count();
    let provisional = if n_finite == 0 {
        f64::INFINITY
    } else {
        agg.provisional_completion()
    };
    link.send(
        &FromShard::RoundDone {
            round,
            n_resolved: n,
            n_finite,
            provisional_bits: provisional.to_bits(),
        },
        None,
    )?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

// Transient protocol envelopes, one live at a time per connection — the
// size skew between variants is irrelevant and boxing would only churn.
#[allow(clippy::large_enum_variant)]
enum PoolEvent {
    Msg {
        shard: usize,
        incarnation: u64,
        msg: FromShard,
        payload: Bytes,
    },
    /// The connection ended: EOF, SIGKILL, or a fatal frame error. Crash
    /// semantics — outstanding ordinals resolve as synthesized failures.
    Down {
        shard: usize,
        incarnation: u64,
        reason: String,
    },
    /// Supervision gave up (retry budget or heartbeat limit). Quarantine
    /// semantics — outstanding ordinals are re-executed locally.
    Unreachable {
        shard: usize,
        incarnation: u64,
        reason: String,
    },
}

/// One resolved client from the pool, normalized for the round loop.
#[derive(Debug)]
pub enum ShardEvent {
    /// A client completed on a shard (or locally after a quarantine).
    Done {
        /// Global round ordinal.
        ord: usize,
        /// The full completion message.
        msg: Box<DoneMsg>,
        /// The frame's binary payload (dense update iff `msg.has_update`).
        payload: Bytes,
    },
    /// A client failed — worker panic on the shard, or synthesized here
    /// when the shard process itself died or was killed.
    Failed {
        /// Global round ordinal.
        ord: usize,
        /// Client id.
        client_id: usize,
        /// Failure description.
        panic_msg: String,
    },
}

struct ShardConn {
    child: Option<Child>,
    link: Option<Link>,
    /// Bumped at the start of every (re)spawn attempt; events from stale
    /// incarnations are discarded.
    incarnation: u64,
    alive: bool,
    /// Set when the shard is torn down mid-round: queued events from the
    /// dead incarnation must not resolve ordinals twice.
    discard: bool,
    /// Unresolved work for the current round, by ordinal. The full
    /// [`WorkItem`] is retained so a quarantined shard's work can be
    /// re-executed locally, bit-identically.
    outstanding: BTreeMap<usize, WorkItem>,
    /// Events (Done or Failed) consumed from this shard this round —
    /// the deterministic kill plan counts these.
    done_this_round: usize,
}

struct KillPoint {
    round: usize,
    shard: usize,
    after_done: usize,
    fired: bool,
}

static POOL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Operational transport counters drained once per round by the trainer.
/// Everything here is host-timing- and fault-schedule-dependent — never
/// part of bit-identity (the trace notes are offstream events).
#[derive(Debug, Default)]
pub struct TransportRoundStats {
    /// Aggregated per-link counters (root side of every connection).
    pub link: LinkRoundStats,
    /// Shards quarantined this round.
    pub quarantined: u64,
    /// Ordinals reassigned to local re-execution this round.
    pub reassigned: u64,
    /// Buffered supervision trace events (all non-canonical).
    pub notes: Vec<TraceEvent>,
}

/// The root-side coordinator: spawns shard processes, routes work by the
/// configured assignment, and streams back normalized [`ShardEvent`]s.
/// Every wait is bounded; there is no unbounded socket read anywhere on
/// this side (link threads pump events into an mpsc channel, and the
/// coordinator only blocks in `recv_timeout`).
pub struct ShardPool {
    fl: FlConfig,
    scheme: Scheme,
    spec: WorkloadSpec,
    n_workers: usize,
    dir: PathBuf,
    conns: Vec<ShardConn>,
    tx: Sender<PoolEvent>,
    rx: Receiver<PoolEvent>,
    /// Synthesized/holdover events served before touching the channel.
    pending: VecDeque<ShardEvent>,
    /// Pool events deferred during a handshake wait, replayed before the
    /// channel is polled again.
    held_events: VecDeque<PoolEvent>,
    kill_plan: Vec<KillPoint>,
    round: usize,
    /// Mirrors `round` for the links' fault-draw coordinate.
    round_atomic: Arc<AtomicU64>,
    /// The current round's broadcast parameters, retained for quarantine
    /// re-execution (lossless: f32 round-trips the wire encoding).
    round_global: Vec<f32>,
    /// Lazily built execution world for quarantine re-execution.
    local_world: Option<ShardWorld>,
    /// Lazily built local executor for quarantine re-execution.
    local_exec: Option<RoundExecutor>,
    /// Counters absorbed from torn-down links, drained per round.
    stats_accum: LinkRoundStats,
    /// Supervision trace notes, drained per round.
    notes_accum: Vec<TraceEvent>,
    n_quarantined_round: u64,
    n_reassigned_round: u64,
    down: bool,
    spawn_counter: u64,
}

impl ShardPool {
    /// Spawns `fl.shard.n_shards` child processes and completes the
    /// `Init`/`Hello` handshake with each. A shard whose handshake times
    /// out (e.g. under total transport loss) is tolerated here — it stays
    /// dead and is quarantined at first dispatch; any other spawn failure
    /// is fatal.
    pub fn new(
        fl: &FlConfig,
        scheme: &Scheme,
        spec: WorkloadSpec,
        n_workers: usize,
    ) -> Result<Self, ShardError> {
        let n_shards = fl.shard.n_shards.max(1);
        let dir = std::env::temp_dir().join(format!(
            "fedca-shard-{}-{}",
            std::process::id(),
            POOL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let (tx, rx) = channel();
        let mut pool = ShardPool {
            fl: fl.clone(),
            scheme: scheme.clone(),
            spec,
            n_workers,
            dir,
            conns: (0..n_shards)
                .map(|_| ShardConn {
                    child: None,
                    link: None,
                    incarnation: 0,
                    alive: false,
                    discard: false,
                    outstanding: BTreeMap::new(),
                    done_this_round: 0,
                })
                .collect(),
            tx,
            rx,
            pending: VecDeque::new(),
            held_events: VecDeque::new(),
            kill_plan: Vec::new(),
            round: 0,
            round_atomic: Arc::new(AtomicU64::new(0)),
            round_global: Vec::new(),
            local_world: None,
            local_exec: None,
            stats_accum: LinkRoundStats::default(),
            notes_accum: Vec::new(),
            n_quarantined_round: 0,
            n_reassigned_round: 0,
            down: false,
            spawn_counter: 0,
        };
        for s in 0..n_shards {
            match pool.spawn_shard(s) {
                Ok(()) => {}
                Err(ShardError::Handshake(why)) => {
                    eprintln!("fedca shard {s}: handshake failed at pool startup: {why}");
                }
                Err(e) => return Err(e),
            }
        }
        Ok(pool)
    }

    /// Number of shard processes.
    pub fn n_shards(&self) -> usize {
        self.conns.len()
    }

    /// Worker threads per shard.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    fn spawn_shard(&mut self, s: usize) -> Result<(), ShardError> {
        // Bump first so a failed attempt can never alias a previous
        // incarnation's events.
        self.conns[s].incarnation += 1;
        let incarnation = self.conns[s].incarnation;
        self.spawn_counter += 1;
        let sock = self
            .dir
            .join(format!("shard-{s}-{}.sock", self.spawn_counter));
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock)?;
        listener.set_nonblocking(true)?;

        let exe =
            std::env::current_exe().map_err(|e| ShardError::Spawn(format!("current_exe: {e}")))?;
        let mut child = Command::new(exe)
            .args(&self.fl.shard.child_args)
            .env(ENV_SOCKET, &sock)
            .env(ENV_SHARD_ID, s.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ShardError::Spawn(format!("spawn: {e}")))?;

        // Bounded accept: poll the nonblocking listener, watching for an
        // early child exit so a crash surfaces as Spawn, not Timeout.
        let deadline = Instant::now() + self.fl.shard.spawn_timeout();
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        let _ = std::fs::remove_file(&sock);
                        return Err(ShardError::Spawn(format!(
                            "shard {s} exited before connecting: {status}"
                        )));
                    }
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&sock);
                        return Err(ShardError::Spawn(format!(
                            "shard {s} did not connect within the spawn timeout"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_file(&sock);
                    return Err(ShardError::Io(e));
                }
            }
        };
        let _ = std::fs::remove_file(&sock);
        stream.set_nonblocking(false)?;

        let sink = {
            // `Sender` is Send but not Sync; the link calls the sink from
            // two threads, so serialize through a mutex.
            let tx = Mutex::new(self.tx.clone());
            move |ev: LinkEvent| {
                let ev = match ev {
                    LinkEvent::Frame(frame) => match parse_meta::<FromShard>(&frame) {
                        Ok(msg) => PoolEvent::Msg {
                            shard: s,
                            incarnation,
                            msg,
                            payload: frame.payload,
                        },
                        Err(e) => PoolEvent::Down {
                            shard: s,
                            incarnation,
                            reason: e.to_string(),
                        },
                    },
                    LinkEvent::Down(reason) => PoolEvent::Down {
                        shard: s,
                        incarnation,
                        reason,
                    },
                    LinkEvent::PeerDead(reason) => PoolEvent::Unreachable {
                        shard: s,
                        incarnation,
                        reason,
                    },
                };
                let _ = tx.lock().send(ev);
            }
        };
        let link = Link::new(
            stream,
            LinkConfig {
                shard: s,
                direction: Direction::ToShard,
                plan: TransportFaultPlan::new(self.fl.shard.transport_faults.clone()),
                round: self.round_atomic.clone(),
                max_frame_len: self.fl.shard.max_frame_len(),
                retry_budget: self.fl.shard.retries(),
                resend_initial: self.fl.shard.resend_initial(),
                resend_max: self.fl.shard.resend_max(),
                heartbeat: Some((
                    self.fl.shard.heartbeat_period(),
                    self.fl.shard.heartbeat_missed(),
                )),
                tick: Duration::from_millis(5),
            },
            sink,
        )?;

        self.conns[s] = ShardConn {
            child: Some(child),
            link: Some(link),
            incarnation,
            alive: true,
            discard: false,
            outstanding: BTreeMap::new(),
            done_this_round: 0,
        };

        let init = ToShard::Init {
            shard_id: s,
            n_shards: self.conns.len(),
            n_workers: self.n_workers,
            fl: self.fl.clone(),
            scheme: self.scheme.clone(),
            workload: self.spec.clone(),
        };
        let sent = self.conns[s]
            .link
            .as_ref()
            .expect("just installed")
            .send(&init, None);
        if let Err(e) = sent {
            self.teardown_conn(s);
            return Err(ShardError::Handshake(format!("Init send failed: {e}")));
        }
        if let Err(e) = self.wait_for_hello(s, incarnation) {
            self.teardown_conn(s);
            return Err(e);
        }
        Ok(())
    }

    /// Bounded wait for this incarnation's `Hello`. Events for other
    /// shards or incarnations are deferred to `held_events`, never lost.
    fn wait_for_hello(&mut self, s: usize, incarnation: u64) -> Result<(), ShardError> {
        let deadline = Instant::now() + self.fl.shard.handshake_timeout();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(ShardError::Handshake(format!(
                    "shard {s} did not say Hello within the handshake timeout"
                )));
            }
            let ev = match self.rx.recv_timeout(deadline - now) {
                Ok(ev) => ev,
                Err(_) => continue, // the loop re-checks the deadline
            };
            let (ev_shard, ev_inc) = match &ev {
                PoolEvent::Msg {
                    shard, incarnation, ..
                }
                | PoolEvent::Down {
                    shard, incarnation, ..
                }
                | PoolEvent::Unreachable {
                    shard, incarnation, ..
                } => (*shard, *incarnation),
            };
            if ev_shard != s || ev_inc != incarnation {
                self.held_events.push_back(ev);
                continue;
            }
            match ev {
                PoolEvent::Msg {
                    msg: FromShard::Hello { shard_id },
                    ..
                } => {
                    return if shard_id == s {
                        Ok(())
                    } else {
                        Err(ShardError::Handshake(format!(
                            "shard {s} said Hello as shard {shard_id}"
                        )))
                    };
                }
                PoolEvent::Msg { msg, .. } => {
                    return Err(ShardError::Handshake(format!(
                        "shard {s} sent {msg:?} before Hello"
                    )));
                }
                PoolEvent::Down { reason, .. } => {
                    return Err(ShardError::Handshake(format!(
                        "shard {s} went down during handshake: {reason}"
                    )));
                }
                PoolEvent::Unreachable { reason, .. } => {
                    return Err(ShardError::Handshake(format!(
                        "shard {s} unreachable during handshake: {reason}"
                    )));
                }
            }
        }
    }

    /// Kills the child process and closes the link, absorbing its final
    /// counters and notes. Leaves `outstanding` untouched — the caller
    /// decides whether those ordinals fail or are re-executed.
    fn teardown_conn(&mut self, s: usize) {
        let link = {
            let c = &mut self.conns[s];
            c.alive = false;
            c.discard = true;
            if let Some(mut child) = c.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            c.link.take()
        };
        if let Some(mut link) = link {
            self.stats_accum.absorb(&link.take_round_stats());
            self.notes_accum.extend(link.take_notes());
            link.close();
        }
    }

    /// Tears a shard down and synthesizes `Failed` events for every
    /// outstanding ordinal — identical in shape to the worker-panic path.
    /// Crash semantics: the process itself died or misbehaved.
    fn fail_shard(&mut self, s: usize, reason: &str) {
        self.teardown_conn(s);
        let outstanding = std::mem::take(&mut self.conns[s].outstanding);
        for (ord, item) in outstanding {
            self.pending.push_back(ShardEvent::Failed {
                ord,
                client_id: item.client_id,
                panic_msg: format!("shard {s} failed: {reason}"),
            });
        }
    }

    /// Quarantines an unreachable shard for the round: kills it, then
    /// re-executes its unresolved ordinals on the root's local executor —
    /// bit-identical to the shard having completed them, so transport
    /// supervision can never alter the trajectory.
    fn quarantine_shard(&mut self, s: usize, reason: &str) {
        self.teardown_conn(s);
        let outstanding = std::mem::take(&mut self.conns[s].outstanding);
        self.n_quarantined_round += 1;
        self.notes_accum.push(TraceEvent::ShardQuarantined {
            round: self.round,
            shard: s,
            reason: reason.to_string(),
        });
        let items: Vec<WorkItem> = outstanding.into_values().collect();
        self.reexec_local(self.round, s, items);
    }

    /// Runs reassigned work items on a lazily built local world/executor,
    /// pushing the results into `pending` in the same normalized shape the
    /// shard path produces. Falls back to synthesized `Failed` events only
    /// when local execution is impossible (unknown workload spec or a dead
    /// local executor).
    fn reexec_local(&mut self, round: usize, shard: usize, items: Vec<WorkItem>) {
        if items.is_empty() {
            return;
        }
        for item in &items {
            self.n_reassigned_round += 1;
            self.notes_accum.push(TraceEvent::OrdinalReassigned {
                round,
                shard,
                ord: item.ord,
                client: item.client_id,
            });
        }
        if self.local_world.is_none() {
            match build_world(&self.fl, &self.scheme, &self.spec) {
                Ok(w) => self.local_world = Some(w),
                Err(e) => {
                    for item in items {
                        self.pending.push_back(ShardEvent::Failed {
                            ord: item.ord,
                            client_id: item.client_id,
                            panic_msg: format!("local re-execution impossible: {e}"),
                        });
                    }
                    return;
                }
            }
        }
        if self.local_exec.is_none() {
            self.local_exec = Some(RoundExecutor::new(self.n_workers));
        }
        // Take both out so `pending` can be pushed while they are in use.
        let world = self.local_world.take().expect("local world just built");
        let executor = self.local_exec.take().expect("local executor just built");

        let ctx = Arc::new(RoundCtx {
            layout: world.layout.clone(),
            workload: world.workload.clone(),
            fl: self.fl.clone(),
            opts: world.opts.clone(),
            global: self.round_global.clone(),
        });
        let mut unresolved: BTreeMap<usize, usize> =
            items.iter().map(|i| (i.ord, i.client_id)).collect();
        let mut submitted = 0usize;
        for item in &items {
            let mut client = world.factory.build(item.client_id);
            if let Some(snap) = &item.snapshot {
                apply_snapshot(&mut client, snap);
            }
            client.participations = item.participations;
            match executor.submit(ClientWork {
                ord: item.ord,
                client,
                plan: item.plan.clone(),
                ctx: ctx.clone(),
            }) {
                Ok(()) => submitted += 1,
                Err(e) => {
                    unresolved.remove(&item.ord);
                    self.pending.push_back(ShardEvent::Failed {
                        ord: item.ord,
                        client_id: item.client_id,
                        panic_msg: format!("local executor rejected work: {e}"),
                    });
                }
            }
        }
        for _ in 0..submitted {
            match executor.recv() {
                Ok(ClientDone::Completed(mut done)) => {
                    unresolved.remove(&done.ord);
                    let (msg, payload) = done_msg_from_completion(round, &mut done);
                    self.pending.push_back(ShardEvent::Done {
                        ord: msg.ord,
                        msg: Box::new(msg),
                        payload: payload.unwrap_or_default(),
                    });
                }
                Ok(ClientDone::Failed(fail)) => {
                    unresolved.remove(&fail.ord);
                    self.pending.push_back(ShardEvent::Failed {
                        ord: fail.ord,
                        client_id: fail.client_id,
                        panic_msg: fail.panic_msg,
                    });
                }
                Err(e) => {
                    for (ord, client_id) in std::mem::take(&mut unresolved) {
                        self.pending.push_back(ShardEvent::Failed {
                            ord,
                            client_id,
                            panic_msg: format!("local executor died: {e}"),
                        });
                    }
                    break;
                }
            }
        }
        self.local_world = Some(world);
        self.local_exec = Some(executor);
    }

    /// Kills a shard immediately (chaos tests). Outstanding work resolves
    /// as synthesized failures.
    pub fn kill_shard(&mut self, s: usize) {
        self.fail_shard(s, "killed");
    }

    /// Schedules a deterministic kill: shard `shard` dies in `round`
    /// after the coordinator has consumed `after_done` of its events
    /// (`0` = at dispatch, before any work lands).
    pub fn schedule_kill(&mut self, round: usize, shard: usize, after_done: usize) {
        self.kill_plan.push(KillPoint {
            round,
            shard,
            after_done,
            fired: false,
        });
    }

    fn take_kill(&mut self, round: usize, shard: usize, done: usize) -> bool {
        for kp in &mut self.kill_plan {
            if !kp.fired && kp.round == round && kp.shard == shard && kp.after_done == done {
                kp.fired = true;
                return true;
            }
        }
        false
    }

    /// Dispatches one round: routes each item to its shard, broadcasting
    /// the global parameters, respawning dead shards lazily. Dispatch
    /// failures degrade — a failed respawn/handshake quarantines the shard
    /// and re-executes its items locally; a broken send fails the shard —
    /// never an Err (the round loop's failure path handles them uniformly).
    pub fn begin_round(
        &mut self,
        round: usize,
        start: SimTime,
        deadline: SimTime,
        global: &[f32],
        items: Vec<WorkItem>,
    ) -> Result<(), ShardError> {
        if self.down {
            return Err(ShardError::Disconnected);
        }
        self.round = round;
        self.round_atomic.store(round as u64, Ordering::Relaxed);
        self.round_global = global.to_vec();
        let n = self.conns.len();
        let assignment = self.fl.shard.assignment.clone();
        let mut by_shard: Vec<Vec<WorkItem>> = (0..n).map(|_| Vec::new()).collect();
        for item in items {
            by_shard[assignment.shard_of(item.ord, n)].push(item);
        }

        let mut global_bytes = BytesMut::with_capacity(4 * global.len());
        for &v in global {
            global_bytes.put_f32_le(v);
        }
        let global_bytes = global_bytes.freeze();

        for (s, items) in by_shard.into_iter().enumerate() {
            self.conns[s].done_this_round = 0;
            if items.is_empty() {
                continue;
            }
            let kill_now = self.take_kill(round, s, 0);
            if !self.conns[s].alive && !kill_now {
                if let Err(e) = self.spawn_shard(s) {
                    // A shard that cannot be (re)connected is quarantined:
                    // its items run locally, bit-identically, so transient
                    // spawn/handshake trouble never alters the trajectory.
                    self.n_quarantined_round += 1;
                    self.notes_accum.push(TraceEvent::ShardQuarantined {
                        round,
                        shard: s,
                        reason: format!("respawn failed: {e}"),
                    });
                    self.reexec_local(round, s, items);
                    continue;
                }
            }
            self.conns[s].outstanding = items.iter().map(|i| (i.ord, i.clone())).collect();
            if kill_now {
                self.fail_shard(s, "killed by kill plan");
                continue;
            }
            let msg = ToShard::RoundStart {
                round,
                start_bits: start.to_bits(),
                deadline_bits: deadline.to_bits(),
                items,
            };
            let sent = self.conns[s]
                .link
                .as_ref()
                .expect("alive shard has a link")
                .send(&msg, Some(global_bytes.clone()));
            match sent {
                Ok(()) => {}
                // The link already declared the peer dead: quarantine (the
                // process may be fine; only the transport gave up).
                Err(LinkError::Dead(reason)) => {
                    self.quarantine_shard(s, &format!("dispatch on a dead link: {reason}"))
                }
                // A broken socket means the process is gone: crash path.
                Err(e) => self.fail_shard(s, &format!("dispatch failed: {e}")),
            }
        }
        Ok(())
    }

    /// Waits (bounded) for the next resolved client. `Err(Timeout)` means
    /// no event arrived within `timeout` — the caller decides whether to
    /// [`kill_stalled`](Self::kill_stalled).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<ShardEvent, ShardError> {
        if self.down {
            return Err(ShardError::Disconnected);
        }
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(ev);
            }
            let ev = if let Some(ev) = self.held_events.pop_front() {
                ev
            } else {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ShardError::Timeout);
                }
                match self.rx.recv_timeout(deadline - now) {
                    Ok(ev) => ev,
                    // Disconnected is unreachable (we hold a Sender
                    // clone); fold it into Timeout defensively.
                    Err(_) => return Err(ShardError::Timeout),
                }
            };
            match ev {
                PoolEvent::Down {
                    shard,
                    incarnation,
                    reason,
                } => {
                    let c = &self.conns[shard];
                    if incarnation != c.incarnation || c.discard || !c.alive {
                        continue;
                    }
                    self.fail_shard(shard, &format!("shard process died: {reason}"));
                }
                PoolEvent::Unreachable {
                    shard,
                    incarnation,
                    reason,
                } => {
                    let c = &self.conns[shard];
                    if incarnation != c.incarnation || c.discard || !c.alive {
                        continue;
                    }
                    self.quarantine_shard(shard, &reason);
                }
                PoolEvent::Msg {
                    shard,
                    incarnation,
                    msg,
                    payload,
                } => {
                    {
                        let c = &self.conns[shard];
                        if incarnation != c.incarnation || c.discard {
                            continue;
                        }
                    }
                    match msg {
                        FromShard::Hello { .. } => continue,
                        FromShard::Done(d) => {
                            if d.round != self.round {
                                self.fail_shard(
                                    shard,
                                    &format!("Done for round {} in round {}", d.round, self.round),
                                );
                                continue;
                            }
                            if self.conns[shard].outstanding.remove(&d.ord).is_none() {
                                // The link layer already delivers exactly
                                // once; a duplicate here is a stale ghost
                                // (or injected by a test) — drop it.
                                self.stats_accum.dup_frames += 1;
                                continue;
                            }
                            self.conns[shard].done_this_round += 1;
                            let done = self.conns[shard].done_this_round;
                            let ev = ShardEvent::Done {
                                ord: d.ord,
                                msg: Box::new(d),
                                payload,
                            };
                            if self.take_kill(self.round, shard, done) {
                                self.fail_shard(shard, "killed by kill plan");
                            }
                            return Ok(ev);
                        }
                        FromShard::Failed {
                            round,
                            ord,
                            client_id,
                            panic_msg,
                        } => {
                            if round != self.round {
                                self.fail_shard(
                                    shard,
                                    &format!("Failed for round {round} in round {}", self.round),
                                );
                                continue;
                            }
                            if self.conns[shard].outstanding.remove(&ord).is_none() {
                                self.stats_accum.dup_frames += 1;
                                continue;
                            }
                            self.conns[shard].done_this_round += 1;
                            let done = self.conns[shard].done_this_round;
                            let ev = ShardEvent::Failed {
                                ord,
                                client_id,
                                panic_msg,
                            };
                            if self.take_kill(self.round, shard, done) {
                                self.fail_shard(shard, "killed by kill plan");
                            }
                            return Ok(ev);
                        }
                        FromShard::RoundDone { round, .. } => {
                            // The coordinator returns from a round as soon
                            // as every ordinal resolves, so a summary for
                            // an *earlier* round is routinely consumed
                            // during the next one — ignore it. A summary
                            // from the future, or for the current round
                            // while ordinals are still unresolved, is a
                            // protocol violation.
                            if round > self.round
                                || (round == self.round
                                    && !self.conns[shard].outstanding.is_empty())
                            {
                                self.fail_shard(
                                    shard,
                                    "RoundDone with unresolved ordinals or wrong round",
                                );
                            }
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// Kills every shard that still owes events for the current round
    /// (their outstanding ordinals resolve as synthesized failures).
    /// Returns whether any shard was killed — `false` means the pool was
    /// idle, i.e. a timeout was a caller bug, not a stall.
    pub fn kill_stalled(&mut self) -> bool {
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive && !c.outstanding.is_empty())
            .map(|(s, _)| s)
            .collect();
        for &s in &stalled {
            self.fail_shard(s, "no progress within the io timeout");
        }
        !stalled.is_empty()
    }

    /// Drains the round's transport supervision counters and trace notes:
    /// live links' counters plus everything absorbed from links torn down
    /// mid-round. Counters restart from zero.
    pub fn take_transport_round_stats(&mut self) -> TransportRoundStats {
        let mut link = std::mem::take(&mut self.stats_accum);
        let mut notes = std::mem::take(&mut self.notes_accum);
        for c in &self.conns {
            if let Some(l) = &c.link {
                link.absorb(&l.take_round_stats());
                notes.extend(l.take_notes());
            }
        }
        TransportRoundStats {
            link,
            quarantined: std::mem::take(&mut self.n_quarantined_round),
            reassigned: std::mem::take(&mut self.n_reassigned_round),
            notes,
        }
    }

    /// Feeds a raw protocol message into the coordinator's event queue as
    /// if a link had delivered it. Test seam for ingest-dedup properties.
    #[doc(hidden)]
    pub fn inject_msg_for_test(
        &self,
        shard: usize,
        incarnation: u64,
        msg: FromShard,
        payload: Bytes,
    ) {
        let _ = self.tx.send(PoolEvent::Msg {
            shard,
            incarnation,
            msg,
            payload,
        });
    }

    /// Current incarnation of a shard connection. Test seam.
    #[doc(hidden)]
    pub fn incarnation_for_test(&self, shard: usize) -> u64 {
        self.conns[shard].incarnation
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        for s in 0..self.conns.len() {
            if let Some(link) = &self.conns[s].link {
                let _ = link.send(&ToShard::Shutdown, None);
            }
            if let Some(mut child) = self.conns[s].child.take() {
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            if let Some(mut link) = self.conns[s].link.take() {
                self.stats_accum.absorb(&link.take_round_stats());
                self.notes_accum.extend(link.take_notes());
                link.close();
            }
            self.conns[s].alive = false;
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drops a `#[test]`-shaped entry point into an integration-test binary so
/// the coordinator can re-exec it as a shard child. A child spawned from a
/// test binary needs argv `["shard_child_entry", "--exact", "--nocapture"]`
/// (see [`test_child_args`]) so libtest runs exactly this one "test" —
/// which serves the shard protocol and never returns control to libtest's
/// suite runner. Without [`ENV_SOCKET`] set it is an instant no-op pass.
#[macro_export]
macro_rules! shard_child_entry {
    () => {
        #[test]
        fn shard_child_entry() {
            $crate::shard::maybe_run_child();
        }
    };
}

/// The `child_args` a test binary must put in `ShardConfig` so re-execing
/// itself lands in the [`shard_child_entry!`] test.
pub fn test_child_args() -> Vec<String> {
    vec![
        "shard_child_entry".into(),
        "--exact".into(),
        "--nocapture".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelLayout;

    fn tiny_layout() -> Arc<ModelLayout> {
        Arc::new(ModelLayout::from_spans(&[
            fedca_nn::model::ParamSpan {
                name: "a".into(),
                range: 0..3,
            },
            fedca_nn::model::ParamSpan {
                name: "b".into(),
                range: 3..5,
            },
        ]))
    }

    #[test]
    fn update_payload_validation_accepts_exact_tilings_only() {
        let layout = tiny_layout();
        let vals = vec![1.0f32, -2.5, 3.25e-7, 0.0, 1e20];
        let update = UpdateVec::from_vec(layout.clone(), vals);
        let payload = encode_update(3, 7, &update);
        assert!(validate_update_payload(&layout, &payload).is_ok());

        // A payload whose layer lengths disagree with the layout is a
        // typed error (here: swapped ids make both lengths wrong).
        let wrong = wire::encode(&UpdateMessage {
            round: 3,
            client: 7,
            layers: vec![
                (1, Payload::Dense(vec![0.0; 3])),
                (0, Payload::Dense(vec![0.0; 2])),
            ],
        });
        assert!(matches!(
            validate_update_payload(&layout, &wrong),
            Err(ShardError::Protocol(_))
        ));

        // A missing layer fails the tiling check.
        let missing = wire::encode(&UpdateMessage {
            round: 3,
            client: 7,
            layers: vec![(0, Payload::Dense(vec![0.0; 3]))],
        });
        assert!(matches!(
            validate_update_payload(&layout, &missing),
            Err(ShardError::Protocol(_))
        ));

        // Concatenated messages that tile the vector together (the eager
        // sidecar shape) are accepted.
        let a = wire::encode(&UpdateMessage {
            round: 3,
            client: 7,
            layers: vec![(1, Payload::Dense(vec![0.0; 2]))],
        });
        let b = wire::encode(&UpdateMessage {
            round: 3,
            client: 7,
            layers: vec![(0, Payload::Dense(vec![0.0; 3]))],
        });
        let mut joined = BytesMut::with_capacity(a.as_ref().len() + b.as_ref().len());
        joined.put_slice(a.as_ref());
        joined.put_slice(b.as_ref());
        assert!(validate_update_payload(&layout, &joined.freeze()).is_ok());
    }

    #[test]
    fn wire_events_preserve_non_finite_timestamps() {
        let p = PendingEvent {
            time: f64::INFINITY,
            host_us: f64::NAN,
            event: TraceEvent::ClientFailed {
                round: 2,
                client: 4,
            },
        };
        let w = WireEvent::from_pending(p.clone());
        let json = serde_json::to_string(&w).unwrap();
        let back: WireEvent = serde_json::from_str(&json).unwrap();
        let q = back.into_pending();
        assert_eq!(q.time.to_bits(), p.time.to_bits());
        assert_eq!(q.host_us.to_bits(), p.host_us.to_bits());
        assert_eq!(q.event, p.event);
    }
}
