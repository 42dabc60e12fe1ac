//! `prep-bench`: regenerate the PREP-UC paper's figures.
//!
//! ```text
//! cargo run -p prep-bench --release -- <figure> [options]
//!
//! figures:  fig1 fig2 fig3 fig4 fig5 fig6 ablation extension shard checkpoint readscale psan serve all
//! options:
//!   --full            paper-scale parameters (1M keys, 10 s trials, 95 threads)
//!   --threads a,b,c   worker-thread sweep (default quick: 1,2,4,7)
//!   --seconds S       seconds per measurement cell
//!   --ds NAME         fig2 only: hashmap | rbtree
//! ```
//!
//! Register the paper's allocator-swap global allocator so persistence-
//! thread allocations land in the persistent arena (§5.1).

use prep_bench::{figures, RunOpts};

#[global_allocator]
static ALLOC: prep_pmem::alloc::SwappableAllocator = prep_pmem::alloc::SwappableAllocator::new();

fn usage() -> ! {
    eprintln!(
        "usage: prep-bench <fig1|fig2|fig3|fig4|fig5|fig6|ablation|extension|shard|checkpoint|readscale|psan|serve|all> \
         [--full] [--threads a,b,c] [--seconds S] [--ds hashmap|rbtree]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let which = args[0].clone();
    let full = args.iter().any(|a| a == "--full");
    let mut opts = if full {
        RunOpts::full()
    } else {
        RunOpts::default()
    };

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => {}
            "--threads" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                opts.threads = list
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--seconds" => {
                i += 1;
                opts.seconds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--ds" => {
                i += 1;
                opts.ds_filter = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
        i += 1;
    }

    println!(
        "# prep-bench scale={} threads={:?} seconds={} (single run per cell)",
        if opts.full { "FULL (paper)" } else { "quick" },
        opts.threads,
        opts.seconds
    );
    println!("# note: thread counts are logical workers; see EXPERIMENTS.md for host caveats");

    match which.as_str() {
        "fig1" => figures::fig1::run(&opts),
        "fig2" => figures::fig2::run(&opts),
        "fig3" => figures::fig3::run(&opts),
        "fig4" => figures::fig4::run(&opts),
        "fig5" => figures::fig5::run(&opts),
        "fig6" => figures::fig6::run(&opts),
        "ablation" => figures::ablation::run(&opts),
        "extension" => figures::extension::run(&opts),
        "shard" => figures::shard::run(&opts),
        "checkpoint" => figures::checkpoint::run(&opts),
        "readscale" => figures::readscale::run(&opts),
        "psan" => figures::psan::run(&opts),
        "serve" => figures::serve::run(&opts),
        "all" => {
            figures::fig1::run(&opts);
            figures::fig2::run(&opts);
            figures::fig3::run(&opts);
            figures::fig4::run(&opts);
            figures::fig5::run(&opts);
            figures::fig6::run(&opts);
            figures::ablation::run(&opts);
            figures::extension::run(&opts);
            figures::shard::run(&opts);
            figures::checkpoint::run(&opts);
            figures::readscale::run(&opts);
            figures::psan::run(&opts);
            figures::serve::run(&opts);
        }
        _ => usage(),
    }
}
