//! Sets `cfg(unoptimized)` when the profile being built has `opt-level`
//! 0. Wall-clock floors that assume unoptimised code (the fused CPU-Adam
//! beating the op-by-op kernel outright) key on the real optimisation
//! level, not on `debug_assertions`, which stays on at any dev opt-level.

fn main() {
    println!("cargo::rustc-check-cfg=cfg(unoptimized)");
    println!("cargo::rerun-if-changed=build.rs");
    if std::env::var("OPT_LEVEL").as_deref() == Ok("0") {
        println!("cargo::rustc-cfg=unoptimized");
    }
}
