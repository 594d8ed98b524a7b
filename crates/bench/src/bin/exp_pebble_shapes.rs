//! E2 / F2 (§6, Fig. 2) — complete and skewed trees versus the zigzag,
//! under both square rules.
//!
//! The *game* with the modified square needs `Theta(sqrt n)` moves on any
//! caterpillar (skewed or zigzag) and `O(log n)` on complete trees; with
//! Rytter's pointer-jump square everything is `O(log n)`. The *algebraic*
//! distinction of §6 — skewed optimal trees converge in `O(log n)`
//! iterations, zigzag in `Theta(sqrt n)` — is measured in E10
//! (`exp_termination`), because it arises from compositions the algorithm
//! can take that the game cannot.
//!
//! Pass `--render` to print the Fig. 2 tree shapes.

use pardp_bench::{banner, cell, print_table};
use pardp_pebble::game::moves_to_pebble;
use pardp_pebble::render::{render_indented, spine_profile};
use pardp_pebble::{gen, lemma_move_bound, SquareRule};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let render = std::env::args().any(|a| a == "--render");
    banner(
        "E2/F2",
        "moves by tree shape (Fig. 2): complete/skewed/zigzag/random",
    );
    let mut rng = SmallRng::seed_from_u64(2020);
    let sizes = [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let mut rows = Vec::new();
    for &n in &sizes {
        let complete = gen::complete(n);
        let skewed = gen::skewed(n, gen::Side::Left);
        let zigzag = gen::zigzag(n);
        let random = gen::random_split(n, &mut rng);
        let m = |t: &pardp_pebble::FullBinaryTree| moves_to_pebble(t, SquareRule::Modified);
        let j = |t: &pardp_pebble::FullBinaryTree| moves_to_pebble(t, SquareRule::PointerJump);
        rows.push(vec![
            cell(n),
            cell(m(&complete)),
            cell(m(&skewed)),
            cell(m(&zigzag)),
            cell(m(&random)),
            cell(j(&zigzag)),
            cell(lemma_move_bound(n)),
            cell(((n as f64).log2().ceil()) as u64),
        ]);
    }
    print_table(
        &[
            "n",
            "complete",
            "skewed",
            "zigzag",
            "random",
            "zigzag(jump)",
            "2*ceil(sqrt n)",
            "ceil(log2 n)",
        ],
        &rows,
    );
    println!(
        "\ncomplete ~ log2 n; skewed & zigzag ~ 1.4*sqrt(n) (game worst case); \
         pointer-jump square (Rytter) is logarithmic everywhere."
    );

    if render {
        banner("F2", "tree shape renderings (Fig. 2)");
        for (name, tree) in [
            ("zigzag (Fig. 2a)", gen::zigzag(8)),
            ("complete (Fig. 2b top)", gen::complete(8)),
            ("skewed (Fig. 2b bottom)", gen::skewed(8, gen::Side::Left)),
        ] {
            println!("--- {name}: spine profile {} ---", spine_profile(&tree));
            println!("{}", render_indented(&tree));
        }
    } else {
        println!("\n(run with --render to print the Fig. 2 tree shapes)");
    }
}
