//! `serve_mixed`: the advisor daemon on loopback.
//!
//! The daemon runs `cli::serve::serve_on` with two service workers, a
//! state directory and a file-backed shared cache. Two closed-loop
//! clients, one per tenant, each open one connection per request (as
//! `hpcadvisor request` does) and alternate a repeat of the served grid
//! (all cache hits once warm) with a fresh (config, seed) pair (all
//! misses). This is the only workload that exercises accept, framing,
//! admission, the job queue and the service journal.
//!
//! Every reply's dataset must equal a standalone collect of the same
//! (config, seed); the served grid and each client's first fresh grids
//! are also checked against recorded digests. Clients keep only a digest
//! of each reply's dataset.
//!
//! The daemon's cost per request grows with the requests it has served
//! (where in the daemon is not yet located): over 2,000 requests per
//! client on a 2-vCPU host, hit latency rose from 6.9 to 9.4 ms and miss
//! latency from 18 to 28 ms. With one daemon for the whole window, every
//! timing would depend on how many requests the window held, so a slower
//! host would read faster per request. The window is therefore cut into
//! daemon lifetimes of [`REQUESTS_PER_LIFETIME`] requests per client, each
//! on a fresh state directory and cache, so every run sees the same
//! growth; `serve.latency_growth` reports it. `peak_rss_mb` is read when
//! the window ends, before the checker's standalone collects run.

use crate::expected::{Expected, Observed};
use crate::stats::peak_rss_mb;
use crate::stats::{digest, tree_bytes, Samples};
use crate::{experiment_seed, Outcome, RunOpts, Scale, THREADS};
use hpcadvisor::cli::serve::{serve_on, ServeOptions};
use hpcadvisor::core::{CollectPlan, Session, SharedScenarioCache, UserConfig};
use hpcadvisor::formats::wire::{Frame, KIND_HEARTBEAT};
use hpcadvisor::formats::{OrderedMap, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon starts timed per daemon lifetime; `setup_s` is their median.
const STARTS: usize = 4;

/// Requests each client makes in one daemon lifetime at full scale.
const REQUESTS_PER_LIFETIME: usize = 1_000;

/// Requests each client makes at least, whatever the window: enough for
/// the recorded fresh grids to be served.
const MIN_PER_CLIENT: usize = 2 * FRESH_RECORDED;

/// Requests at each end of a lifetime that `serve.latency_growth` compares.
const GROWTH_SPAN: usize = 200;

/// Fresh grids per client whose digests are recorded.
const FRESH_RECORDED: usize = 4;

const TENANTS: [&str; THREADS] = ["alpha", "beta"];

/// Client and daemon I/O deadline: far above any request's latency, so
/// hitting it means the daemon stalled.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The served grid of a variant: LAMMPS on 3 SKUs × 4 node counts.
fn served_config(variant: u64, scale: Scale) -> UserConfig {
    let mut config = UserConfig::example_lammps();
    config.nnodes = match scale {
        Scale::Full => vec![1, 2, 4, 8],
        Scale::Tiny => vec![1, 2],
    };
    config.appinputs = vec![("BOXFACTOR".into(), vec![(8 + variant).to_string()])];
    config
}

/// One request a client sends.
struct Spec {
    config: UserConfig,
    seed: u64,
}

/// Which request a client sent: the served grid, or `client`'s `k`-th
/// fresh grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ask {
    Served,
    Fresh { client: usize, k: usize },
}

impl Ask {
    fn spec(self, variant: u64, scale: Scale) -> Spec {
        match self {
            Ask::Served => served(variant, scale),
            Ask::Fresh { client, k } => fresh(variant, scale, client, k),
        }
    }
}

/// The `k`-th fresh request of `client`: the served grid with one of four
/// inputs and a seed no other request uses, so every scenario misses.
fn fresh(variant: u64, scale: Scale, client: usize, k: usize) -> Spec {
    let mut config = served_config(variant, scale);
    config.appinputs = vec![(
        "BOXFACTOR".into(),
        vec![(8 + variant + (k % 4) as u64).to_string()],
    )];
    Spec {
        config,
        seed: experiment_seed(variant) + 1 + (THREADS * k + client) as u64,
    }
}

fn served(variant: u64, scale: Scale) -> Spec {
    Spec {
        config: served_config(variant, scale),
        seed: experiment_seed(variant),
    }
}

/// What the client saw of one request.
struct Reply {
    ask: Ask,
    /// Connect → terminal frame.
    latency_s: f64,
    /// Connect → first frame of any kind.
    first_frame_s: f64,
    frames: u64,
    bytes: u64,
    result: Result<Served, String>,
}

struct Served {
    /// Digest of the reply's `dataset_json`.
    dataset_digest: String,
    points: u64,
    not_completed: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn int(stats: &OrderedMap, key: &str) -> u64 {
    stats.get(key).and_then(Value::as_int).unwrap_or(0).max(0) as u64
}

/// One `collect` request on its own connection.
fn request(addr: SocketAddr, tenant: &str, ask: Ask, spec: &Spec, id: i64) -> Reply {
    let mut reply = Reply {
        ask,
        latency_s: 0.0,
        first_frame_s: 0.0,
        frames: 0,
        bytes: 0,
        result: Err("no reply".into()),
    };
    let t0 = Instant::now();
    reply.result = (|| {
        let yaml = spec.config.to_yaml();
        let mut body = OrderedMap::new();
        body.insert("tenant", Value::str(tenant));
        body.insert("config_yaml", Value::str(&yaml));
        body.insert("seed", Value::Int(spec.seed as i64));
        body.insert("workers", Value::Int(1));
        body.insert(
            "request_key",
            Value::str(format!(
                "req-{}",
                digest(&format!("{tenant}\u{0}{}\u{0}{yaml}", spec.seed))
            )),
        );
        let line = Frame::new(id, "collect", Value::Map(body))
            .encode_checked()
            .map_err(|e| format!("encode: {e}"))?;
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("deadline: {e}"))?;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut text = String::new();
        loop {
            text.clear();
            let n = reader
                .read_line(&mut text)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 || !text.ends_with('\n') {
                return Err("connection cut".into());
            }
            if reply.frames == 0 {
                reply.first_frame_s = t0.elapsed().as_secs_f64();
            }
            reply.frames += 1;
            reply.bytes += n as u64;
            let frame = Frame::decode(text.trim_end()).map_err(|e| format!("bad frame: {e}"))?;
            match frame.kind.as_str() {
                "progress" | KIND_HEARTBEAT => continue,
                "result" => {
                    let map = frame.body.as_map().ok_or("result body")?;
                    let stats = map
                        .get("stats")
                        .and_then(Value::as_map)
                        .ok_or("result stats")?;
                    let completed = int(stats, "completed");
                    let not_completed = int(stats, "failed") + int(stats, "skipped");
                    return Ok(Served {
                        dataset_digest: digest(
                            map.get("dataset_json")
                                .and_then(Value::as_str)
                                .ok_or("result dataset")?,
                        ),
                        points: completed + not_completed,
                        not_completed,
                        cache_hits: int(stats, "cache_hits"),
                        cache_misses: int(stats, "cache_misses"),
                    });
                }
                "error" => {
                    return Err(format!(
                        "error frame: {}",
                        frame.error_message().unwrap_or("unknown")
                    ))
                }
                other => return Err(format!("unexpected frame '{other}'")),
            }
        }
    })();
    reply.latency_s = t0.elapsed().as_secs_f64();
    reply
}

/// Forwards the daemon's announcement lines.
struct Announce {
    tx: Sender<String>,
    line: Vec<u8>,
}

impl Write for Announce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            if b == b'\n' {
                let _ = self
                    .tx
                    .send(String::from_utf8_lossy(&self.line).into_owned());
                self.line.clear();
            } else {
                self.line.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), String>>,
}

fn cache_file(dir: &Path) -> std::path::PathBuf {
    dir.join("cache").join("scenario-cache.json")
}

/// Starts the daemon on `dir`'s cache and state directory. Returns it
/// with the seconds from start to `serving on` and the cache-open share.
fn start(dir: &Path) -> Result<(Daemon, f64, f64), String> {
    let t0 = Instant::now();
    let cache = SharedScenarioCache::open(cache_file(dir));
    let cache_open_s = t0.elapsed().as_secs_f64();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    let opts = ServeOptions {
        service_workers: THREADS,
        cache,
        io_timeout: IO_TIMEOUT,
        state_dir: Some(dir.join("state")),
        ..ServeOptions::default()
    };
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let mut out = Announce {
            tx,
            line: Vec::new(),
        };
        serve_on(listener, opts, &mut out).map_err(|e| e.to_string())
    });
    loop {
        match rx.recv_timeout(IO_TIMEOUT) {
            Ok(line) if line.starts_with("serving on") => break,
            Ok(_) => continue,
            Err(_) => {
                let why = match handle.join() {
                    Ok(Err(e)) => e,
                    _ => "daemon did not announce itself".into(),
                };
                return Err(format!("daemon start: {why}"));
            }
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((Daemon { addr, handle }, setup_s, cache_open_s))
}

/// Graceful shutdown: the daemon drains, persists its cache and exits.
fn stop(daemon: Daemon) -> Result<(), String> {
    let sent = (|| -> std::io::Result<String> {
        let mut stream = TcpStream::connect(daemon.addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        let line = Frame::new(1, "shutdown", Value::Null).encode();
        stream.write_all(format!("{line}\n").as_bytes())?;
        let mut ack = String::new();
        BufReader::new(stream).read_line(&mut ack)?;
        Ok(ack)
    })();
    let joined = daemon
        .handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    joined?;
    match sent {
        Ok(ack) if Frame::decode(ack.trim_end()).is_ok_and(|f| f.kind == "ok") => Ok(()),
        Ok(ack) => Err(format!("shutdown answered with {ack:?}")),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}

/// The dataset a standalone collect of `spec` produces.
fn standalone(spec: &Spec) -> Result<String, String> {
    let mut session = Session::builder(spec.config.clone())
        .seed(spec.seed)
        .build()
        .map_err(|e| format!("standalone session: {e}"))?;
    let report = session
        .collect_with(&CollectPlan::new())
        .map_err(|e| format!("standalone collect: {e}"))?;
    Ok(report.dataset.to_json())
}

/// Digests of the served grid and of each client's first fresh grids,
/// from standalone collects.
fn recorded_values(variant: u64, scale: Scale) -> Result<Observed, String> {
    let mut observed = Observed::default();
    observed.text(
        "served_digest",
        digest(&standalone(&served(variant, scale))?),
    );
    let mut fresh_text = String::new();
    for client in 0..THREADS {
        for k in 0..FRESH_RECORDED {
            fresh_text.push_str(&standalone(&fresh(variant, scale, client, k))?);
        }
    }
    observed.text("fresh_digest", digest(&fresh_text));
    Ok(observed)
}

/// Checks every reply against a standalone collect of its (config, seed),
/// computing the standalone datasets on [`THREADS`] threads.
fn verify(
    replies: &[Reply],
    variant: u64,
    scale: Scale,
    checks: &mut crate::Checks,
) -> Result<(), String> {
    let asks: BTreeSet<Ask> = replies
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.ask)
        .collect();
    let asks: Vec<Ask> = asks.into_iter().collect();
    let per = asks.len().div_ceil(THREADS).max(1);
    let mut digests: BTreeMap<Ask, String> = BTreeMap::new();
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = asks
            .chunks(per)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&ask| Ok((ask, digest(&standalone(&ask.spec(variant, scale))?))))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        for h in handles {
            digests.extend(h.join().map_err(|_| "verifier panicked".to_string())??);
        }
        Ok(())
    })?;
    for r in replies {
        if let Ok(served) = &r.result {
            checks.check(digests.get(&r.ask) == Some(&served.dataset_digest), || {
                format!(
                    "daemon dataset for {:?} differs from a standalone collect",
                    r.ask
                )
            });
        }
    }
    Ok(())
}

/// Runs one client's closed loop against `addr`: up to `requests`
/// requests, alternating the served grid and the client's fresh grids,
/// until the window that started at `t0` has passed (but at least
/// [`MIN_PER_CLIENT`]).
fn client_loop(
    addr: SocketAddr,
    client: usize,
    spec: (u64, Scale),
    requests: usize,
    t0: Instant,
    window: Duration,
) -> Vec<Reply> {
    let (variant, scale) = spec;
    let hit = served(variant, scale);
    let mut replies = Vec::new();
    let mut k = 0;
    while k < requests && (k < MIN_PER_CLIENT || t0.elapsed() < window) {
        let reply = if k % 2 == 0 {
            request(addr, TENANTS[client], Ask::Served, &hit, k as i64 + 1)
        } else {
            let ask = Ask::Fresh { client, k: k / 2 };
            request(
                addr,
                TENANTS[client],
                ask,
                &ask.spec(variant, scale),
                k as i64 + 1,
            )
        };
        replies.push(reply);
        k += 1;
    }
    replies
}

/// Median latency of the last [`GROWTH_SPAN`] requests of each client's
/// full lifetimes over that of its first ones: how much a daemon's
/// per-request cost grows with the requests it has served.
fn latency_growth(lifetimes: &[Vec<Reply>], requests: usize) -> f64 {
    let (mut early, mut late) = (Samples::new(), Samples::new());
    for replies in lifetimes.iter().filter(|r| r.len() == requests) {
        let span = GROWTH_SPAN.min(requests / 2);
        for r in &replies[..span] {
            early.push(r.latency_s);
        }
        for r in &replies[requests - span..] {
            late.push(r.latency_s);
        }
    }
    if early.is_empty() || early.median() <= 0.0 {
        return 0.0;
    }
    late.median() / early.median()
}

pub fn run(opts: &RunOpts, expected: &Expected) -> Result<Outcome, String> {
    let variant = opts.variant();
    let hit = served(variant, opts.scale);
    let requests = match opts.scale {
        Scale::Full => REQUESTS_PER_LIFETIME,
        Scale::Tiny => MIN_PER_CLIENT,
    };
    let mut out = Outcome::default();
    let (mut setup, mut cache_open) = (Samples::new(), Samples::new());
    // Replies of each client in each daemon lifetime, in request order.
    let mut lifetimes: Vec<Vec<Reply>> = Vec::new();
    let (mut state_bytes, mut cache_bytes) = (0, 0);
    let mut wall = 0.0;
    let window = Duration::from_secs_f64(opts.seconds);
    let t0 = Instant::now();
    let mut lifetime = 0;
    while lifetime == 0 || t0.elapsed() < window {
        let dir = opts.work_root.join(format!("serve-{lifetime}"));
        // Warm the served grid once, so every timed repeat of it is all
        // hits.
        let (daemon, _, _) = start(&dir)?;
        let warm = request(daemon.addr, TENANTS[0], Ask::Served, &hit, 0);
        stop(daemon)?;
        warm.result.map_err(|e| format!("warm-up request: {e}"))?;
        let mut daemon = None;
        for n in 0..STARTS {
            let (d, setup_s, open_s) = start(&dir)?;
            setup.push(setup_s);
            cache_open.push(open_s);
            if n + 1 < STARTS {
                stop(d)?;
            } else {
                daemon = Some(d);
            }
        }
        let daemon = daemon.expect("at least one start");
        let started = Instant::now();
        let per_client: Vec<Vec<Reply>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|client| {
                    let addr = daemon.addr;
                    let spec = (variant, opts.scale);
                    s.spawn(move || client_loop(addr, client, spec, requests, t0, window))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        wall += started.elapsed().as_secs_f64();
        stop(daemon)?;
        // The last lifetime may have been cut short by the window.
        state_bytes = state_bytes.max(tree_bytes(&dir.join("state")));
        cache_bytes = cache_bytes.max(tree_bytes(&dir.join("cache")));
        let _ = std::fs::remove_dir_all(&dir);
        lifetimes.extend(per_client);
        lifetime += 1;
    }
    // Before the checker's standalone collects run.
    out.metrics.put("peak_rss_mb", peak_rss_mb());
    let growth = latency_growth(&lifetimes, requests);
    let replies: Vec<Reply> = lifetimes.into_iter().flatten().collect();

    expected.compare(
        &mut out.checks,
        opts.scale,
        "serve",
        variant,
        &recorded_values(variant, opts.scale)?,
    );
    verify(&replies, variant, opts.scale, &mut out.checks)?;

    let (mut latency, mut first, mut hit_ms, mut miss_ms) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut points, mut frames, mut bytes, mut hits, mut lookups) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for r in &replies {
        out.attempted += 1;
        frames += r.frames;
        bytes += r.bytes;
        match &r.result {
            Ok(served) => {
                if served.not_completed > 0 {
                    out.failed += 1;
                }
                points += served.points;
                hits += served.cache_hits;
                lookups += served.cache_hits + served.cache_misses;
                latency.push(r.latency_s * 1e3);
                first.push(r.first_frame_s * 1e3);
                if r.ask == Ask::Served {
                    hit_ms.push(r.latency_s * 1e3);
                } else {
                    miss_ms.push(r.latency_s * 1e3);
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("request failed: {e}");
            }
        }
    }
    let answered = latency.len() as f64;
    let m = &mut out.metrics;
    m.put("setup_s", setup.median());
    m.put("scenarios_per_s", points as f64 / wall);
    m.put("requests_per_s", answered / wall);
    m.put("request_p50_ms", latency.median());
    m.put("first_frame_p50_ms", first.median());
    if opts.trace {
        m.put("serve.hit_request_ms_p50", hit_ms.median());
        m.put("serve.miss_request_ms_p50", miss_ms.median());
        m.put("serve.request_p99_ms", latency.tail());
        m.put(
            "serve.frames_per_request",
            frames as f64 / replies.len() as f64,
        );
        m.put(
            "serve.bytes_per_request",
            bytes as f64 / replies.len() as f64,
        );
        m.put("serve.state_bytes", state_bytes as f64);
        m.put("serve.latency_growth", growth);
        m.put("cache.open_s", cache_open.median());
        m.put(
            "cache.hit_ratio",
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
        );
        m.put("cache.store_bytes", cache_bytes as f64);
    }
    out.samples.push(("requests".into(), latency.len()));
    out.samples.push(("daemon_starts".into(), setup.len()));
    Ok(out)
}

/// Recorded values of a variant, from standalone collects.
pub fn record(variant: u64, scale: Scale, _dir: &Path) -> Result<Observed, String> {
    recorded_values(variant, scale)
}
