//! Seeded inputs: the corpus file the server loads and the request
//! streams the driver sends. The program under test sees only these
//! generated bytes; one seed always yields the same bytes.

use crate::http::{Request, Route};
use gf_datasets::io::write_tsv;
use gf_datasets::{SynthConfig, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// Rating counts of a written corpus, indexed as the server numbers
/// users and items after loading it (dense, in order of first
/// appearance in the file).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// Ratings of each loaded user.
    pub user_ratings: Vec<u32>,
    /// Ratings of each loaded item.
    pub item_ratings: Vec<u32>,
}

/// What the generated requests may address: the dimensions the server
/// sees after loading the corpus, the corpus's own activity, and the
/// registered groupings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Universe {
    /// Users in the loaded matrix.
    pub n_users: u32,
    /// Items in the loaded matrix.
    pub n_items: u32,
    /// Registered grouping names (`default` first).
    pub groupings: Vec<String>,
    /// Groups per grouping (`--ell`).
    pub ell: usize,
    /// Loaded users, most ratings first (ties by index): the order of
    /// the Zipf ranks.
    pub users_by_activity: Vec<u32>,
    /// Running total of the loaded items' rating counts.
    pub item_cum: Vec<u64>,
}

impl Universe {
    /// The universe of a loaded `corpus` served with `groupings`.
    pub fn new(corpus: &Corpus, groupings: Vec<String>, ell: usize) -> Universe {
        let mut users_by_activity: Vec<u32> = (0..corpus.user_ratings.len() as u32).collect();
        users_by_activity.sort_by_key(|&u| std::cmp::Reverse(corpus.user_ratings[u as usize]));
        let item_cum = corpus
            .item_ratings
            .iter()
            .scan(0u64, |total, &c| {
                *total += u64::from(c);
                Some(*total)
            })
            .collect();
        Universe {
            n_users: corpus.user_ratings.len() as u32,
            n_items: corpus.item_ratings.len() as u32,
            groupings,
            ell,
            users_by_activity,
            item_cum,
        }
    }
}

/// Generates a Yahoo!-Music-shaped corpus of `users`×`items` from `seed`
/// and writes it to `out` as `user item rating` lines. Returns its rating
/// counts in the server's numbering: the loader interns user and item
/// ids in order of first appearance, and keeps only items someone rated.
pub fn write_corpus<W: Write>(out: W, users: u32, items: u32, seed: u64) -> io::Result<Corpus> {
    let matrix = SynthConfig::yahoo_music()
        .with_users(users)
        .with_items(items)
        .with_seed(seed)
        .generate()
        .matrix;
    // `write_tsv` writes users in order and each user's items in
    // increasing order; number them the way the loader will.
    let mut corpus = Corpus::default();
    let mut loaded_item = vec![u32::MAX; matrix.n_items() as usize];
    for u in 0..matrix.n_users() {
        let row = matrix.user_items(u);
        if row.is_empty() {
            continue;
        }
        corpus.user_ratings.push(row.len() as u32);
        for &i in row {
            let slot = &mut loaded_item[i as usize];
            if *slot == u32::MAX {
                *slot = corpus.item_ratings.len() as u32;
                corpus.item_ratings.push(0);
            }
            corpus.item_ratings[*slot as usize] += 1;
        }
    }
    write_tsv(&matrix, out)?;
    Ok(corpus)
}

/// Independent request streams drawn from one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Set-up ratings that warm every grouping's standing former.
    Warmup,
    /// Feedback that fills the online quality window.
    Fill,
    /// The timed phase's writes.
    Writes,
    /// The timed phase's reads.
    Reads,
    /// Reads that poll for `version` while the window fills.
    FillReads,
}

/// A seeded request generator that follows the corpus's own activity.
/// Users are Zipf-skewed (exponent 1) over their rank by rating count,
/// so the corpus's most active user is also the most active requester;
/// items are drawn in proportion to their rating count.
pub struct Gen {
    rng: SmallRng,
    uni: Universe,
    user_rank: Zipf,
}

impl Gen {
    /// The generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: Stream, uni: &Universe) -> Gen {
        let salt = match stream {
            Stream::Warmup => 0x11,
            Stream::Fill => 0x22,
            Stream::Writes => 0x33,
            Stream::Reads => 0x44,
            Stream::FillReads => 0x55,
        };
        Gen {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt),
            uni: uni.clone(),
            user_rank: Zipf::new(uni.n_users as usize, 1.0),
        }
    }

    fn user(&mut self) -> u32 {
        self.uni.users_by_activity[self.user_rank.sample(&mut self.rng)]
    }

    fn item(&mut self) -> u32 {
        let total = self.uni.item_cum.last().copied().unwrap_or(0);
        let r = self.rng.gen_range(0..total);
        self.uni.item_cum.partition_point(|&c| c <= r) as u32
    }

    fn grouping(&mut self) -> String {
        let i = self.rng.gen_range(0..self.uni.groupings.len());
        self.uni.groupings[i].clone()
    }

    /// `POST /v1/rate`: a Zipf user rates an item 1–5 stars.
    pub fn rate(&mut self) -> Request {
        let user = self.user();
        let item = self.item();
        let rating = self.rng.gen_range(1..=5u32);
        Request {
            route: Route::Rate,
            method: "POST",
            path: "/v1/rate".into(),
            query: String::new(),
            body: format!("{{\"user\":{user},\"item\":{item},\"rating\":{rating}}}"),
        }
    }

    /// `POST /v1/feedback`: a Zipf user consumed an item; one event in
    /// four is scoped to a registered grouping.
    pub fn feedback(&mut self) -> Request {
        let user = self.user();
        let item = self.item();
        let body = if self.rng.gen_range(0..4u32) == 0 {
            let g = self.grouping();
            format!("{{\"user\":{user},\"item\":{item},\"grouping\":\"{g}\"}}")
        } else {
            format!("{{\"user\":{user},\"item\":{item}}}")
        };
        Request {
            route: Route::Feedback,
            method: "POST",
            path: "/v1/feedback".into(),
            query: String::new(),
            body,
        }
    }

    /// One write of a 1:1 rating/feedback mix.
    pub fn mixed_write(&mut self) -> Request {
        if self.rng.gen_bool(0.5) {
            self.rate()
        } else {
            self.feedback()
        }
    }

    /// One read of the read mix: 45% `/v1/group`, 45% `/v1/recommend`
    /// (candidate filtering on), 10% `/v1/stats`, over every grouping.
    pub fn read(&mut self) -> Request {
        let roll = self.rng.gen_range(0..100u32);
        let (route, path, query) = if roll < 45 {
            let g = self.grouping();
            let u = self.user();
            (Route::Group, format!("/v1/group/{g}/{u}"), String::new())
        } else if roll < 90 {
            let g = self.grouping();
            let gi = self.rng.gen_range(0..self.uni.ell);
            (
                Route::Recommend,
                format!("/v1/recommend/{g}/{gi}"),
                "top_k=5&exclude_rated=true".to_string(),
            )
        } else {
            (Route::Stats, "/v1/stats".to_string(), String::new())
        };
        Request {
            route,
            method: "GET",
            path,
            query,
            body: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf_core::RatingScale;

    fn corpus(seed: u64) -> (Vec<u8>, Corpus) {
        let mut bytes = Vec::new();
        let counts = write_corpus(&mut bytes, 300, 60, seed).unwrap();
        (bytes, counts)
    }

    fn universe() -> Universe {
        Universe::new(&corpus(7).1, vec!["default".into(), "av".into()], 10)
    }

    fn stream(seed: u64, which: Stream) -> Vec<Request> {
        let mut g = Gen::new(seed, which, &universe());
        (0..200)
            .map(|i| match i % 3 {
                0 => g.rate(),
                1 => g.feedback(),
                _ => g.read(),
            })
            .collect()
    }

    fn field(body: &str, key: &str) -> u32 {
        let v = gf_serve::Json::parse(body).unwrap();
        v.get(key).unwrap().as_u64().unwrap() as u32
    }

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        assert_eq!(corpus(7), corpus(7));
        assert_eq!(stream(7, Stream::Writes), stream(7, Stream::Writes));
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        assert_ne!(corpus(7).0, corpus(8).0);
        assert_ne!(stream(7, Stream::Writes), stream(8, Stream::Writes));
        // Streams of one seed are independent of each other too.
        assert_ne!(stream(7, Stream::Writes), stream(7, Stream::Reads));
    }

    #[test]
    fn counts_follow_the_loaders_numbering() {
        let (bytes, counts) = corpus(5);
        let m = gf_datasets::io::read_tsv(&bytes[..], RatingScale::one_to_five())
            .unwrap()
            .matrix;
        let users: Vec<u32> = (0..m.n_users())
            .map(|u| m.user_items(u).len() as u32)
            .collect();
        let mut items = vec![0u32; m.n_items() as usize];
        for u in 0..m.n_users() {
            for &i in m.user_items(u) {
                items[i as usize] += 1;
            }
        }
        assert_eq!(counts.user_ratings, users);
        assert_eq!(counts.item_ratings, items);
    }

    #[test]
    fn requests_follow_the_corpus_activity() {
        let uni = universe();
        let counts = corpus(7).1;
        let mut g = Gen::new(3, Stream::Writes, &uni);
        let mut user_draws = vec![0u32; uni.n_users as usize];
        let mut drawn_item_ratings = 0u64;
        let n = 4000;
        for _ in 0..n {
            let r = g.rate();
            user_draws[field(&r.body, "user") as usize] += 1;
            drawn_item_ratings += u64::from(counts.item_ratings[field(&r.body, "item") as usize]);
        }
        // The most requested user is the corpus's most active one.
        let top = (0..uni.n_users)
            .max_by_key(|&u| user_draws[u as usize])
            .unwrap();
        assert_eq!(top, uni.users_by_activity[0]);
        assert!(counts.user_ratings[top as usize] == *counts.user_ratings.iter().max().unwrap());
        // Items drawn in proportion to their ratings have, on average,
        // more ratings than the average item.
        let total: u64 = counts.item_ratings.iter().map(|&c| u64::from(c)).sum();
        let mean_item = total as f64 / counts.item_ratings.len() as f64;
        assert!(drawn_item_ratings as f64 / n as f64 > mean_item);
    }

    #[test]
    fn requests_stay_inside_the_universe() {
        let uni = universe();
        let mut g = Gen::new(3, Stream::Reads, &uni);
        for _ in 0..500 {
            let r = g.rate();
            assert!(field(&r.body, "user") < uni.n_users);
            assert!(field(&r.body, "item") < uni.n_items);
            let f = g.feedback();
            let v = gf_serve::Json::parse(&f.body).unwrap();
            if let Some(name) = v.get("grouping") {
                assert!(uni.groupings.iter().any(|g| g == name.as_str().unwrap()));
            }
        }
    }
}
