//! Records the compiler version and build profile for the host metadata
//! every benchmark result carries.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| String::from("rustc"));
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || String::from("unknown"),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| String::from("unknown"));
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
