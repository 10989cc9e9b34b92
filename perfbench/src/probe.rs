//! The machine-speed probe: a fixed CPU loop plus a fixed memcpy, run at
//! the start and end of every run. It describes the machine a run had;
//! no metric is ever scaled by it.

use std::hint::black_box;
use std::time::Instant;

/// Runs the probe once and returns its wall time in milliseconds.
pub fn machine_probe_ms() -> f64 {
    let started = Instant::now();
    // A dependent xorshift chain: pure ALU work the compiler cannot fold.
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    // Memory bandwidth: copy 32 MiB back and forth four times.
    let mut a = vec![1u8; 32 << 20];
    let mut b = vec![0u8; 32 << 20];
    for _ in 0..2 {
        b.copy_from_slice(black_box(&a));
        a.copy_from_slice(black_box(&b));
    }
    black_box(&a);
    started.elapsed().as_secs_f64() * 1e3
}
