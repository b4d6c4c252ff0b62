//! Seeded workload generators. The seed picks the programs; the system
//! under test only ever receives the generated mini-JS sources.

use expose_dse::lexer::{lex, Token};
use expose_dse::parser::parse_program;
use expose_fuzz::{generate_case, FuzzBudget, GenConfig, Query};

/// One generated DSE job input: a mini-JS program and its entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Job label.
    pub name: String,
    /// Mini-JS source.
    pub source: String,
    /// Entry function.
    pub entry: String,
    /// Number of symbolic string arguments.
    pub arity: usize,
}

/// A fresh regex drawn from the differential fuzzer's generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NovelRegex {
    /// Pattern body (no slashes).
    pub pattern: String,
    /// Flag string.
    pub flags: String,
    /// Capture index the template branches on.
    pub capture: usize,
    /// String the capture is compared against.
    pub word: String,
}

/// SplitMix64: a tiny deterministic generator for job orders.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// The `dse-shared` program pool: the eleven library workloads plus
/// `generated` programs from the Table 7 generator. Their regexes come
/// from a few templates, so DSE meets the same regexes again and again.
pub fn shared_pool(seed: u64, generated: usize) -> Vec<Program> {
    let mut pool: Vec<Program> = corpus::library_workloads()
        .into_iter()
        .map(|w| Program {
            name: w.name.to_string(),
            source: w.source.to_string(),
            entry: w.entry.to_string(),
            arity: w.arity,
        })
        .collect();
    pool.extend(
        corpus::generate_dse_programs(generated, seed)
            .into_iter()
            .map(|p| Program {
                name: p.name,
                source: p.source,
                entry: p.entry,
                arity: p.arity,
            }),
    );
    pool
}

/// An endless job order over a pool of `len` programs: every pass over
/// the pool takes a fresh seeded permutation.
#[derive(Debug, Clone)]
pub struct Cycle {
    seed: u64,
    pass: u64,
    len: usize,
    order: Vec<usize>,
    pos: usize,
}

impl Cycle {
    /// The order of a pool of `len` programs under `seed`.
    pub fn new(seed: u64, len: usize) -> Cycle {
        Cycle {
            seed,
            pass: 0,
            len,
            order: Vec::new(),
            pos: 0,
        }
    }
}

impl Iterator for Cycle {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        if self.pos == self.order.len() {
            let mut rng = SplitMix::new(self.seed ^ self.pass.wrapping_mul(0x2545_f491_4f6c_dd1d));
            self.order = rng.permutation(self.len);
            self.pass += 1;
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.order[self.pos - 1])
    }
}

/// The fixed mini-JS template of `dse-novel`: an `exec` whose result
/// branches on one capture, then a `test` of the same regex.
pub fn novel_source(regex: &NovelRegex) -> String {
    let literal = format!("/{}/{}", regex.pattern, regex.flags);
    format!(
        "function f(s) {{\n    let m = {literal}.exec(s);\n    if (m) {{\n        \
         if (m[{}] === \"{}\") {{ return \"capture\"; }}\n        return \"match\";\n    }}\n    \
         if ({literal}.test(s)) {{ return \"test\"; }}\n    return \"none\";\n}}\n",
        regex.capture, regex.word
    )
}

/// The deterministic `dse-novel` filter: a fuzz case is kept only when
/// its pattern is non-empty, its `/pattern/flags` literal lexes back as
/// exactly one regex token (the mini-JS lexer holds it intact), the
/// template's capture word needs no string escapes, and the templated
/// program parses.
pub fn keep_novel(regex: &NovelRegex) -> bool {
    let literal = format!("/{}/{}", regex.pattern, regex.flags);
    if regex.pattern.is_empty()
        || regex.pattern.contains(['\n', '\r', '\u{2028}', '\u{2029}'])
        || regex.word.contains(['"', '\\', '\n', '\r'])
    {
        return false;
    }
    let whole_literal = matches!(
        lex(&literal).as_deref(),
        Ok([Token::Regex(text), Token::Eof]) if *text == literal
    );
    whole_literal && parse_program(&novel_source(regex)).is_ok()
}

/// The fuzz generator settings of `dse-novel`: the fuzzer's defaults
/// with nesting depth 2 and without backreferences, lookaheads and word
/// boundaries. Single regexes of those shapes ran for 1–16 s each under
/// the quick budget, and depth-3 regexes made the per-run job mix (and
/// with it `jobs_per_s`) swing with the seed.
pub fn novel_gen_config() -> GenConfig {
    GenConfig {
        backrefs: false,
        lookaheads: false,
        boundaries: false,
        max_depth: 2,
        ..GenConfig::default()
    }
}

/// The fuzz case seed of the `index`-th candidate of a run seeded
/// `seed`.
fn case_seed(seed: u64, index: u64) -> u64 {
    SplitMix::new(seed.wrapping_mul(0x0000_0100_0000_01b3) ^ index).next_u64()
}

/// The first `count` fresh regexes of a run that pass [`keep_novel`],
/// with how many candidates the filter dropped.
pub fn novel_regexes(seed: u64, count: usize) -> (Vec<NovelRegex>, usize) {
    let cfg = novel_gen_config();
    let budget = FuzzBudget::quick();
    let mut kept = Vec::with_capacity(count);
    let mut dropped = 0usize;
    let mut index = 0u64;
    while kept.len() < count {
        let case = generate_case(case_seed(seed, index), &cfg, &budget);
        index += 1;
        let (capture, word) = match case.query {
            Query::CaptureEq { index, word } => (index, word),
            _ => (1, "a".to_string()),
        };
        let regex = NovelRegex {
            pattern: case.pattern,
            flags: case.flags,
            capture,
            word,
        };
        if keep_novel(&regex) {
            kept.push(regex);
        } else {
            dropped += 1;
        }
    }
    (kept, dropped)
}

/// The `dse-novel` programs: one template instance per fresh regex.
pub fn novel_programs(regexes: &[NovelRegex]) -> Vec<Program> {
    regexes
        .iter()
        .enumerate()
        .map(|(i, regex)| Program {
            name: format!("novel-{i:05}"),
            source: novel_source(regex),
            entry: "f".to_string(),
            arity: 1,
        })
        .collect()
}
