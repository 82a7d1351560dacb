//! The `vcloudd` TCP front end: accept loop, per-connection handlers,
//! result streaming, and graceful shutdown.
//!
//! Networking is plain `std::net` over loopback by default — the daemon is
//! an in-lab scenario service, not an internet-facing one. Each accepted
//! connection gets its own handler thread speaking [`vc_net::svc`] frames;
//! all of them share one [`SupervisorHandle`].

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use vc_net::svc::{read_decode, write_frame, Channel, Frame, JobPhase, CHUNK_LEN};

use crate::job::JobSpec;
use crate::supervisor::{Finished, Supervisor, SupervisorConfig, SupervisorHandle};

/// Daemon configuration (worker pool + listen address).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// Worker pool / admission settings.
    pub pool: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".into(), pool: SupervisorConfig::default() }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until a client
/// sends SHUTDOWN and the drain completes.
pub struct Server {
    listener: TcpListener,
    supervisor: Supervisor,
    shutdown: Arc<AtomicBool>,
    active_conns: Arc<AtomicU64>,
}

impl Server {
    /// Binds the listener and starts the worker pool.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            supervisor: Supervisor::start(config.pool),
            shutdown: Arc::new(AtomicBool::new(false)),
            active_conns: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until SHUTDOWN: accepts, spawns one handler
    /// thread per connection, and after the drain joins the worker pool.
    /// Returns the number of connections served.
    pub fn run(self) -> io::Result<u64> {
        let addr = self.listener.local_addr()?;
        let mut served = 0u64;
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            served += 1;
            self.active_conns.fetch_add(1, Ordering::SeqCst);
            let sup = self.supervisor.handle();
            let shutdown = Arc::clone(&self.shutdown);
            let conns = Arc::clone(&self.active_conns);
            std::thread::spawn(move || {
                let _ = handle_conn(stream, &sup, &shutdown, addr);
                conns.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // SHUTDOWN's Okay is only sent after the drain, so every admitted
        // job is terminal here; joining the pool is now instant.
        self.supervisor.drain();
        // Give in-flight responses on other connections a bounded window
        // to finish streaming before the process (in the binary) exits.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while self.active_conns.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        Ok(served)
    }
}

/// Serves one connection: a loop of client frames, each answered in
/// order on the same stream.
fn handle_conn(
    stream: TcpStream,
    sup: &SupervisorHandle,
    shutdown: &AtomicBool,
    server_addr: std::net::SocketAddr,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match read_decode(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // client closed cleanly
            Err(e) => {
                // Protocol violation: answer once, then drop the
                // connection (the stream may be unsynchronized).
                let detail = format!("protocol error: {e}");
                let _ = write_frame(&mut writer, &Frame::Error { detail });
                let _ = writer.flush();
                return Ok(());
            }
        };
        match frame {
            Frame::Submit { scenario, seed, ticks, flags } => {
                let spec = JobSpec { scenario, seed, ticks, flags };
                let reply = match sup.submit(spec) {
                    Ok(job) => Frame::Accepted { job },
                    Err((reason, detail)) => Frame::Rejected { reason, detail },
                };
                write_frame(&mut writer, &reply)?;
            }
            Frame::Status { job } => {
                let reply = match sup.status(job) {
                    Some((phase, queue_depth, times)) => {
                        Frame::JobStatus { job, phase, queue_depth, times }
                    }
                    None => Frame::Error { detail: format!("unknown job {job}") },
                };
                write_frame(&mut writer, &reply)?;
            }
            Frame::Result { job } => match sup.wait_result(job) {
                Some(fin) => stream_result(&mut writer, job, &fin)?,
                None => write_frame(
                    &mut writer,
                    &Frame::Error { detail: format!("unknown job {job}") },
                )?,
            },
            Frame::Cancel { job } => {
                let reply = if sup.cancel(job) {
                    Frame::Okay
                } else {
                    Frame::Error { detail: format!("unknown job {job}") }
                };
                write_frame(&mut writer, &reply)?;
            }
            Frame::Metrics => {
                write_frame(&mut writer, &Frame::MetricsReply { json: sup.metrics_json() })?;
            }
            Frame::Shutdown => {
                // Drain first so Okay certifies "every admitted job is
                // terminal", then wake the accept loop with a loopback
                // connect so Server::run can exit.
                sup.begin_drain();
                write_frame(&mut writer, &Frame::Okay)?;
                writer.flush()?;
                shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(server_addr);
                return Ok(());
            }
            other => {
                let detail = format!("unexpected client frame: {other:?}");
                write_frame(&mut writer, &Frame::Error { detail })?;
            }
        }
        writer.flush()?;
    }
}

/// Streams a terminal job back: header (exact lengths + checksum), stats
/// chunks, trace chunks, end marker.
fn stream_result<W: Write>(writer: &mut W, job: u64, fin: &Finished) -> io::Result<()> {
    write_frame(
        writer,
        &Frame::ResultHeader {
            job,
            phase: fin.phase,
            checksum: fin.output.checksum,
            stats_len: fin.output.stats.len() as u64,
            trace_len: fin.output.trace.len() as u64,
            times: fin.times,
        },
    )?;
    for (channel, bytes) in
        [(Channel::Stats, &fin.output.stats), (Channel::Trace, &fin.output.trace)]
    {
        for data in bytes.chunks(CHUNK_LEN) {
            write_frame(writer, &Frame::Chunk { job, channel, data: data.to_vec() })?;
        }
    }
    if fin.phase == JobPhase::Failed && !fin.detail.is_empty() {
        // Failure detail rides after the (empty) payload so clients can
        // surface it; it is advisory and outside the checksum.
        write_frame(writer, &Frame::Error { detail: fin.detail.clone() })?;
    }
    write_frame(writer, &Frame::ResultEnd { job })?;
    Ok(())
}

/// Convenience for tests and the binary: bind + report + run.
pub fn bind_and_announce(config: &ServerConfig) -> io::Result<(Server, std::net::SocketAddr)> {
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    Ok((server, addr))
}
