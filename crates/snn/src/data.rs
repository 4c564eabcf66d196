//! Deterministic synthetic datasets standing in for MNIST and
//! Fashion-MNIST.
//!
//! The repository is self-contained and offline, so the paper's datasets
//! are replaced by procedural generators with the same shape (28x28
//! grayscale, 10 classes) and the same *difficulty ordering*:
//! [`synth_digits`] is easy (well-separated seven-segment glyphs, MNIST-like
//! accuracy ceilings) and [`synth_fashion`] is harder (clothing silhouettes
//! with deliberately confusable classes — t-shirt / pullover / coat / shirt
//! — Fashion-MNIST-like ceilings). Table 3 of the paper is about the *gap*
//! between the float reference and the binarized chip pipeline, which these
//! preserve.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Image side length (matching the paper's INPUT28*28).
pub const IMAGE_SIDE: usize = 28;

/// Number of classes in both datasets.
pub const NUM_CLASSES: usize = 10;

/// A labelled image dataset.
///
/// # Examples
///
/// ```
/// use sushi_snn::data::synth_digits;
///
/// let d = synth_digits(100, 1);
/// assert_eq!(d.len(), 100);
/// let (train, test) = d.split(0.8);
/// assert_eq!(train.len(), 80);
/// assert_eq!(test.len(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (for reports).
    pub name: String,
    /// Flattened images, each `IMAGE_SIDE * IMAGE_SIDE` floats in `[0, 1]`.
    pub images: Vec<Vec<f32>>,
    /// Class labels, one per image.
    pub labels: Vec<u8>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Pixels per image.
    pub fn width(&self) -> usize {
        IMAGE_SIDE * IMAGE_SIDE
    }

    /// Splits into `(train, test)` at the given train fraction.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `(0, 1)`.
    pub fn split(&self, frac: f64) -> (Dataset, Dataset) {
        assert!(frac > 0.0 && frac < 1.0, "split fraction must be in (0,1)");
        let cut = (self.len() as f64 * frac).round() as usize;
        let train = Dataset {
            name: format!("{}-train", self.name),
            images: self.images[..cut].to_vec(),
            labels: self.labels[..cut].to_vec(),
        };
        let test = Dataset {
            name: format!("{}-test", self.name),
            images: self.images[cut..].to_vec(),
            labels: self.labels[cut..].to_vec(),
        };
        (train, test)
    }

    /// A deterministic shuffled sample order: visiting
    /// `self.images[order[k]]` for `k` ascending is the same stream a
    /// [`Dataset::shuffled`] copy yields — without cloning any image. An
    /// epoch shuffle is O(n) indices, not O(n·width) floats; the training
    /// loop iterates these.
    pub fn shuffled_indices(&self, seed: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..idx.len()).rev() {
            idx.swap(i, rng.gen_range(0..=i));
        }
        idx
    }

    /// A deterministic shuffled copy (see [`Dataset::shuffled_indices`]
    /// for the allocation-free form).
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let idx = self.shuffled_indices(seed);
        Dataset {
            name: self.name.clone(),
            images: idx.iter().map(|&i| self.images[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
        }
    }
}

/// A 28x28 canvas under construction.
struct Canvas {
    px: Vec<f32>,
}

impl Canvas {
    fn new() -> Self {
        Self {
            px: vec![0.0; IMAGE_SIDE * IMAGE_SIDE],
        }
    }

    fn set(&mut self, x: i32, y: i32, v: f32) {
        if (0..IMAGE_SIDE as i32).contains(&x) && (0..IMAGE_SIDE as i32).contains(&y) {
            let i = y as usize * IMAGE_SIDE + x as usize;
            self.px[i] = self.px[i].max(v);
        }
    }

    fn rect(&mut self, x0: i32, y0: i32, x1: i32, y1: i32, v: f32) {
        for y in y0..=y1 {
            for x in x0..=x1 {
                self.set(x, y, v);
            }
        }
    }

    fn finish(mut self, rng: &mut StdRng, flip_p: f64, jitter: f32) -> Vec<f32> {
        for p in &mut self.px {
            if rng.gen_bool(flip_p) {
                *p = if *p > 0.5 {
                    0.0
                } else {
                    rng.gen_range(0.5..1.0)
                };
            } else if *p > 0.0 {
                *p = (*p + rng.gen_range(-jitter..jitter)).clamp(0.0, 1.0);
            }
        }
        self.px
    }
}

/// Seven-segment membership per digit: (a, b, c, d, e, f, g).
const SEGMENTS: [[bool; 7]; 10] = [
    [true, true, true, true, true, true, false],     // 0
    [false, true, true, false, false, false, false], // 1
    [true, true, false, true, true, false, true],    // 2
    [true, true, true, true, false, false, true],    // 3
    [false, true, true, false, false, true, true],   // 4
    [true, false, true, true, false, true, true],    // 5
    [true, false, true, true, true, true, true],     // 6
    [true, true, true, false, false, false, false],  // 7
    [true, true, true, true, true, true, true],      // 8
    [true, true, true, true, false, true, true],     // 9
];

fn draw_digit(c: &mut Canvas, digit: usize, ox: i32, oy: i32, v: f32) {
    // Glyph box: 12 wide, 20 tall, segments 2px thick.
    let [a, b, cc, d, e, f, g] = SEGMENTS[digit];
    if a {
        c.rect(ox + 2, oy, ox + 9, oy + 1, v);
    }
    if g {
        c.rect(ox + 2, oy + 9, ox + 9, oy + 10, v);
    }
    if d {
        c.rect(ox + 2, oy + 18, ox + 9, oy + 19, v);
    }
    if f {
        c.rect(ox, oy + 2, ox + 1, oy + 8, v);
    }
    if b {
        c.rect(ox + 10, oy + 2, ox + 11, oy + 8, v);
    }
    if e {
        c.rect(ox, oy + 11, ox + 1, oy + 17, v);
    }
    if cc {
        c.rect(ox + 10, oy + 11, ox + 11, oy + 17, v);
    }
}

/// Generates `n` MNIST-like digit images with deterministic randomness.
pub fn synth_digits(n: usize, seed: u64) -> Dataset {
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let digit = i % NUM_CLASSES;
        let mut c = Canvas::new();
        let ox = 8 + rng.gen_range(-2i32..=2);
        let oy = 4 + rng.gen_range(-2i32..=2);
        let v = rng.gen_range(0.75..1.0);
        draw_digit(&mut c, digit, ox, oy, v);
        images.push(c.finish(&mut rng, 0.015, 0.15));
        labels.push(digit as u8);
    }
    Dataset {
        name: "SynthDigits".to_owned(),
        images,
        labels,
    }
}

fn draw_fashion(c: &mut Canvas, class: usize, dx: i32, dy: i32, v: f32, rng: &mut StdRng) {
    let r = |c: &mut Canvas, x0: i32, y0: i32, x1: i32, y1: i32| {
        c.rect(x0 + dx, y0 + dy, x1 + dx, y1 + dy, v);
    };
    match class {
        // t-shirt: boxy body, short sleeves.
        0 => {
            r(c, 9, 8, 18, 22);
            r(c, 5, 8, 8, 13);
            r(c, 19, 8, 22, 13);
        }
        // trouser: waistband and two legs.
        1 => {
            r(c, 10, 4, 18, 7);
            r(c, 10, 8, 13, 24);
            r(c, 15, 8, 18, 24);
        }
        // pullover: like t-shirt with long sleeves.
        2 => {
            r(c, 9, 8, 18, 22);
            r(c, 4, 8, 8, 20);
            r(c, 19, 8, 23, 20);
        }
        // dress: narrow top flaring to a wide hem.
        3 => {
            for (i, y) in (6..=24).enumerate() {
                let half = 3 + (i as i32) / 3;
                r(c, 14 - half, y, 13 + half, y);
            }
        }
        // coat: tall body, long sleeves, open collar.
        4 => {
            r(c, 8, 6, 19, 24);
            r(c, 4, 7, 7, 21);
            r(c, 20, 7, 23, 21);
            // Collar: carve a notch by overdrawing nothing — emulate with
            // a dark strip drawn first means we instead skip; draw lapel
            // lines as brighter columns.
            c.rect(13 + dx, 6 + dy, 14 + dx, 12 + dy, (v - 0.5).max(0.1));
        }
        // sandal: thin sole plus strap dots.
        5 => {
            r(c, 5, 18, 22, 21);
            for k in 0..4 {
                let x = 7 + k * 4;
                r(c, x, 12 + (k % 2) * 2, x + 1, 17);
            }
        }
        // shirt: t-shirt body with button placket and cuffs.
        6 => {
            r(c, 9, 7, 18, 23);
            r(c, 5, 7, 8, 14);
            r(c, 19, 7, 22, 14);
            for y in (8..22).step_by(3) {
                c.rect(13 + dx, y + dy, 14 + dx, y + dy, (v - 0.4).max(0.1));
            }
        }
        // sneaker: sole plus low upper.
        7 => {
            r(c, 5, 17, 22, 21);
            r(c, 8, 12, 20, 16);
        }
        // bag: box with a handle arch.
        8 => {
            r(c, 7, 12, 20, 24);
            r(c, 10, 7, 11, 12);
            r(c, 16, 7, 17, 12);
            r(c, 10, 7, 17, 8);
        }
        // ankle boot: shaft plus foot.
        9 => {
            r(c, 13, 5, 20, 18);
            r(c, 6, 15, 20, 21);
        }
        _ => unreachable!("class {class} out of range"),
    }
    // Texture speckle to differentiate fabric classes.
    if matches!(class, 0 | 2 | 4 | 6) {
        for _ in 0..6 {
            let x = rng.gen_range(9..19);
            let y = rng.gen_range(9..22);
            c.set(x + dx, y + dy, (v - rng.gen_range(0.2f32..0.5)).max(0.05));
        }
    }
}

/// Generates `n` Fashion-MNIST-like clothing silhouettes (harder than
/// [`synth_digits`]: heavier noise and confusable upper-body classes).
pub fn synth_fashion(n: usize, seed: u64) -> Dataset {
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA51_0000);
    for i in 0..n {
        let class = i % NUM_CLASSES;
        let mut c = Canvas::new();
        let dx = rng.gen_range(-3i32..=3);
        let dy = rng.gen_range(-3i32..=3);
        let v = rng.gen_range(0.45..1.0);
        draw_fashion(&mut c, class, dx, dy, v, &mut rng);
        images.push(c.finish(&mut rng, 0.09, 0.35));
        labels.push(class as u8);
    }
    Dataset {
        name: "SynthFashion".to_owned(),
        images,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(synth_digits(50, 9), synth_digits(50, 9));
        assert_ne!(synth_digits(50, 9), synth_digits(50, 10));
        assert_eq!(synth_fashion(50, 9), synth_fashion(50, 9));
    }

    #[test]
    fn images_are_normalized_28x28() {
        for d in [synth_digits(30, 1), synth_fashion(30, 1)] {
            for img in &d.images {
                assert_eq!(img.len(), 784);
                assert!(img.iter().all(|&p| (0.0..=1.0).contains(&p)));
                assert!(img.iter().any(|&p| p > 0.3), "blank image in {}", d.name);
            }
        }
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = synth_digits(25, 2);
        assert_eq!(d.labels[0], 0);
        assert_eq!(d.labels[13], 3);
        assert!(d.labels.iter().all(|&l| (l as usize) < NUM_CLASSES));
    }

    #[test]
    fn split_partitions_exactly() {
        let d = synth_digits(100, 3);
        let (tr, te) = d.split(0.7);
        assert_eq!(tr.len(), 70);
        assert_eq!(te.len(), 30);
        assert_eq!(tr.images[0], d.images[0]);
        assert_eq!(te.images[0], d.images[70]);
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let d = synth_digits(40, 4);
        let s = d.shuffled(5);
        assert_eq!(s.len(), d.len());
        // Every (image, label) pair must survive the shuffle.
        for (img, &lab) in s.images.iter().zip(&s.labels) {
            let orig = d.images.iter().position(|x| x == img).expect("image lost");
            assert_eq!(d.labels[orig], lab);
        }
        assert_ne!(s.labels, d.labels, "shuffle changed nothing");
    }

    #[test]
    fn shuffled_matches_index_view() {
        // `shuffled_indices` must describe exactly the stream a shuffled
        // copy yields — the training loop relies on this to skip the
        // per-epoch image clones.
        let d = synth_digits(40, 4);
        let s = d.shuffled(5);
        let order = d.shuffled_indices(5);
        assert_eq!(order.len(), d.len());
        let mut seen = vec![false; d.len()];
        for (k, &i) in order.iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[i], true), "index {i} repeated");
            assert_eq!(s.images[k], d.images[i]);
            assert_eq!(s.labels[k], d.labels[i]);
        }
    }

    #[test]
    fn classes_are_visually_distinct_on_average() {
        // Mean per-class images should differ pairwise — a weak separability
        // guarantee for training.
        let d = synth_digits(200, 6);
        let mut means = vec![vec![0.0f32; 784]; 10];
        let mut counts = [0usize; 10];
        for (img, &l) in d.images.iter().zip(&d.labels) {
            counts[l as usize] += 1;
            for (m, p) in means[l as usize].iter_mut().zip(img) {
                *m += p;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        for a in 0..10 {
            for b in (a + 1)..10 {
                let dist: f32 = means[a]
                    .iter()
                    .zip(&means[b])
                    .map(|(x, y)| (x - y).powi(2))
                    .sum();
                assert!(dist > 1.0, "classes {a} and {b} overlap (dist {dist})");
            }
        }
    }

    #[test]
    fn fashion_is_noisier_than_digits() {
        let dig = synth_digits(100, 7);
        let fas = synth_fashion(100, 7);
        let frac_mid = |d: &Dataset| {
            let (mid, total) = d.images.iter().flatten().fold((0u32, 0u32), |(m, t), &p| {
                ((m + u32::from(p > 0.05 && p < 0.6)), t + 1)
            });
            mid as f64 / total as f64
        };
        assert!(frac_mid(&fas) > frac_mid(&dig));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_split_fraction_panics() {
        let _ = synth_digits(10, 0).split(1.0);
    }
}
