//! References for the host's current speed, so op times can be
//! reported at one fixed speed although the host switches between speed
//! modes for minutes at a time (see the README's host section).
//!
//! [`Loopback`] does the work a replay op does: short-lived loopback TCP
//! exchanges, with an echo thread on the same pinned CPU as the fleet.
//! [`CacheWork`] does the work a simulated point does. Neither runs any
//! code of the program under test.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// An echo thread on `127.0.0.1:0`, stopped and joined on drop.
pub struct Loopback {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Loopback {
    /// Starts the echo thread.
    pub fn start() -> io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut conn) = conn else { continue };
                    let mut buf = [0u8; 64];
                    if let Ok(n) = conn.read(&mut buf) {
                        let _ = conn.write_all(&buf[..n]);
                    }
                }
            }
        });
        Ok(Loopback {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Milliseconds `n` exchanges take, each on a fresh connection.
    pub fn exchange_ms(&self, n: usize) -> io::Result<f64> {
        let start = Instant::now();
        for _ in 0..n {
            let mut stream = TcpStream::connect(self.addr)?;
            stream.write_all(b"perfbench")?;
            let mut buf = [0u8; 9];
            stream.read_exact(&mut buf)?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Fixed reference work whose time tracks the host's current speed.
pub trait Probe {
    /// Milliseconds one sample of the work takes now.
    fn sample_ms(&mut self) -> io::Result<f64>;
}

/// Exchanges in one loopback sample.
pub const SAMPLE_EXCHANGES: usize = 4;

impl Probe for Loopback {
    fn sample_ms(&mut self) -> io::Result<f64> {
        self.exchange_ms(SAMPLE_EXCHANGES)
    }
}

/// Iterations of the cache work in one sample on each thread.
const CACHE_WORK_ITERS: u32 = 100_000;

/// Work shaped like the simulator's inner loops, run on every CPU at
/// once: a 4-way set-associative tag array with LRU ages fed a
/// pseudo-random address stream with locality, and a table of 2-bit
/// counters indexed by a branch history. It is this package's own code.
/// Each thread keeps its tables between samples, so a sample allocates
/// nothing.
pub struct CacheWork {
    tables: Vec<Tables>,
}

impl CacheWork {
    /// One set of tables per thread.
    pub fn new(threads: usize) -> CacheWork {
        CacheWork {
            tables: (0..threads.max(1)).map(|_| Tables::new()).collect(),
        }
    }
}

impl Probe for CacheWork {
    fn sample_ms(&mut self) -> io::Result<f64> {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .tables
                .iter_mut()
                .map(|tables| {
                    scope.spawn(move || {
                        let start = Instant::now();
                        std::hint::black_box(tables.run(CACHE_WORK_ITERS));
                        start.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cache work does not panic"))
                .collect()
        });
        Ok(times.iter().sum::<f64>() / times.len() as f64)
    }
}

/// One thread's tables for [`CacheWork`].
struct Tables {
    tags: Vec<u64>,
    ages: Vec<u8>,
    counters: Vec<u8>,
}

impl Tables {
    const SETS: usize = 4096;
    const COUNTERS: usize = 1 << 14;

    fn new() -> Tables {
        Tables {
            tags: vec![u64::MAX; 4 * Self::SETS],
            ages: vec![0; 4 * Self::SETS],
            counters: vec![0; Self::COUNTERS],
        }
    }

    /// See [`CacheWork`]; returns the misses so the work is not
    /// optimised away.
    fn run(&mut self, iters: u32) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let (mut pc, mut history, mut misses) = (0u64, 0u64, 0u64);
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pc = if x & 7 == 0 { x >> 20 } else { pc + 64 } & ((1 << 26) - 1);
            let block = pc >> 6;
            let base = (block as usize % Self::SETS) * 4;
            let way = match (0..4).find(|&w| self.tags[base + w] == block) {
                Some(w) => w,
                None => {
                    misses += 1;
                    let w = (0..4).max_by_key(|&w| self.ages[base + w]).unwrap_or(0);
                    self.tags[base + w] = block;
                    w
                }
            };
            for age in &mut self.ages[base..base + 4] {
                *age = age.saturating_add(1);
            }
            self.ages[base + way] = 0;
            let taken = x & 3 != 0;
            let counter = &mut self.counters[((pc >> 2) ^ history) as usize % Self::COUNTERS];
            misses += u64::from((*counter >= 2) != taken);
            *counter = if taken {
                (*counter + 1).min(3)
            } else {
                counter.saturating_sub(1)
            };
            history = (history << 1 | u64::from(taken)) & 0xfff;
        }
        misses
    }
}

/// The current speed is the median of this many latest samples.
const WINDOW: usize = 5;

/// Scales op times by the host's current speed at a [`Probe`]'s work:
/// an op time is multiplied by the probe's reference time over its
/// current time. The probes run no code of the program, so a change to
/// the program moves the scaled time as much as the raw one.
pub struct Scale<P> {
    probe: P,
    samples: Vec<f64>,
    ops: u64,
    every: u64,
    reference_ms: f64,
}

impl<P: Probe> Scale<P> {
    /// Samples `probe` every `every` ops; `reference_ms` is one sample
    /// on the reference host in its usual (slower) mode. The first
    /// [`tick`](Self::tick)s fill the window, so a probe that starts a
    /// thread is built before the fleet is pinned and ticked only after.
    pub fn new(probe: P, every: u64, reference_ms: f64) -> Scale<P> {
        Scale {
            probe,
            samples: Vec::with_capacity(WINDOW + 1),
            ops: 0,
            every,
            reference_ms,
        }
    }

    /// Called before each op: takes a sample while the window is not
    /// full and then every `every` ops, dropping the oldest.
    pub fn tick(&mut self) -> io::Result<()> {
        if self.samples.len() < WINDOW || self.ops.is_multiple_of(self.every) {
            self.samples.push(self.probe.sample_ms()?);
            if self.samples.len() > WINDOW {
                self.samples.remove(0);
            }
        }
        self.ops += 1;
        Ok(())
    }

    /// One sample at the host's current speed, in ms.
    pub fn sample_ms(&self) -> f64 {
        crate::stats::median(&self.samples).expect("tick before scaling")
    }

    /// `raw_ms` as it would read at the reference speed.
    pub fn scale(&self, raw_ms: f64) -> f64 {
        raw_ms * self.reference_ms / self.sample_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe whose samples are scripted.
    struct Fixed(Vec<f64>);

    impl Probe for Fixed {
        fn sample_ms(&mut self) -> io::Result<f64> {
            Ok(self.0.remove(0))
        }
    }

    #[test]
    fn scaling_uses_the_median_of_a_sliding_window() {
        let samples = vec![2.0, 2.0, 4.0, 4.0, 4.0, 8.0, 8.0, 8.0];
        let mut scale = Scale::new(Fixed(samples), 2, 1.0);
        // The first five ticks fill the window: median of 2,2,4,4,4.
        for _ in 0..5 {
            scale.tick().expect("scripted");
        }
        assert_eq!(scale.sample_ms(), 4.0);
        // At reference speed a 4-sample op would take 1 ms.
        assert_eq!(scale.scale(12.0), 3.0);
        // Tick 5 samples nothing (5 is odd), tick 6 slides in an 8.
        scale.tick().expect("scripted");
        assert_eq!(scale.samples, [2.0, 2.0, 4.0, 4.0, 4.0]);
        scale.tick().expect("scripted");
        assert_eq!(scale.samples, [2.0, 4.0, 4.0, 4.0, 8.0]);
    }

    #[test]
    fn the_probes_do_their_work() {
        let mut loopback = Loopback::start().expect("echo thread");
        assert!(loopback.sample_ms().expect("loopback exchange") > 0.0);
        assert!(CacheWork::new(2).sample_ms().expect("cache work") > 0.0);
        let (mut a, mut b) = (Tables::new(), Tables::new());
        assert_eq!(a.run(1000), b.run(1000));
    }
}
