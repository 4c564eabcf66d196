//! Published-spec models of the comparison chips (Table 4).
//!
//! The paper compares against published numbers for TrueNorth (Merolla et
//! al., Science 2014) and Tianjic (Pei et al., Nature 2019); it does not
//! re-run them. We encode the same published specs, which is what Table 4
//! and the reference lines in Figs. 19/21 use.

/// Published specification of a neuromorphic chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Chip name.
    pub name: String,
    /// Model class executed ("SNN", "Hybrid", "SSNN").
    pub model: String,
    /// On-chip memory technology ("SRAM", or "-" for SUSHI).
    pub memory: String,
    /// Fabrication technology.
    pub technology: String,
    /// Clocking ("Async" or a frequency in MHz).
    pub clock: String,
    /// Die area in mm².
    pub area_mm2: f64,
    /// Power in mW (min, max of the published range).
    pub power_mw: (f64, f64),
    /// Peak synaptic throughput in GSOPS, when published.
    pub gsops: Option<f64>,
    /// Power efficiency in GSOPS/W.
    pub gsops_per_w: f64,
}

impl Baseline {
    /// TrueNorth's published specs as cited by the paper: 58 GSOPS peak,
    /// 400 GSOPS/W, 430 mm² in 28 nm CMOS, 63–300 mW, asynchronous.
    pub fn truenorth() -> Self {
        Self {
            name: "TrueNorth".to_owned(),
            model: "SNN".to_owned(),
            memory: "SRAM".to_owned(),
            technology: "CMOS, 28 nm".to_owned(),
            clock: "Async".to_owned(),
            area_mm2: 430.0,
            power_mw: (63.0, 300.0),
            gsops: Some(58.0),
            gsops_per_w: 400.0,
        }
    }

    /// Tianjic's published specs as cited by the paper: 649 GSOPS/W,
    /// 14.44 mm² in 28 nm CMOS, 950 mW at 300 MHz.
    pub fn tianjic() -> Self {
        Self {
            name: "Tianjic".to_owned(),
            model: "Hybrid".to_owned(),
            memory: "SRAM".to_owned(),
            technology: "CMOS, 28 nm".to_owned(),
            clock: "300".to_owned(),
            area_mm2: 14.44,
            power_mw: (950.0, 950.0),
            gsops: None,
            gsops_per_w: 649.0,
        }
    }

    /// Both baselines, in Table 4 order.
    pub fn all() -> Vec<Baseline> {
        vec![Self::truenorth(), Self::tianjic()]
    }

    /// The published power as a display string ("63-300" or "950").
    pub fn power_display(&self) -> String {
        if (self.power_mw.0 - self.power_mw.1).abs() < f64::EPSILON {
            format!("{:.0}", self.power_mw.0)
        } else {
            format!("{:.0}-{:.0}", self.power_mw.0, self.power_mw.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truenorth_matches_table4() {
        let t = Baseline::truenorth();
        assert_eq!(t.gsops, Some(58.0));
        assert_eq!(t.gsops_per_w, 400.0);
        assert_eq!(t.area_mm2, 430.0);
        assert_eq!(t.power_display(), "63-300");
    }

    #[test]
    fn tianjic_matches_table4() {
        let t = Baseline::tianjic();
        assert_eq!(t.gsops, None);
        assert_eq!(t.gsops_per_w, 649.0);
        assert_eq!(t.power_display(), "950");
        assert_eq!(t.clock, "300");
    }

    #[test]
    fn all_lists_both_in_order() {
        let names: Vec<String> = Baseline::all().into_iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["TrueNorth", "Tianjic"]);
    }
}
