package repro.perfbench

import repro.core.LoCEC
import repro.exp.Experiments
import repro.wechat.SocialGen

/** One benchmark workload: a generated network (a `SocialGen.Config` built
  * from the run's seed) plus the LoCEC variant that labels all of its edges. */
final case class Workload(name: String, variant: LoCEC.Variant,
                          config: Long => SocialGen.Config) {
  val sizes: Experiments.ModelSizes = Experiments.ModelSizes()

  def params: LoCEC.Params =
    LoCEC.Params(variant = variant, gbdt = sizes.gbdt, cnn = sizes.cnn, lr = sizes.lr,
      maxTrainCommunities = sizes.maxTrainCommunities)

  /** Boosting rounds or CNN epochs: the unit of `fit_per_epoch_s`. */
  def epochs: Int = variant match {
    case LoCEC.Cnn => sizes.cnn.epochs
    case LoCEC.Xgb => sizes.gbdt.numRounds
  }
}

/** The workloads. README.md records why each exists, which layer dominates
  * it and which layers it bypasses; in short:
  *
  *  - `table6-cnn`: a sparse network with half the users surveyed,
  *    LoCEC-CNN. CommCNN training dominates; Girvan–Newman is cheap.
  *  - `dense-ego-xgb`: work circles of 55 at edge probability 0.5,
  *    LoCEC-XGB. Triangle enumeration and per-ego GN dominate, the shape of
  *    the paper's Table VI; CommCNN is bypassed.
  *
  * Work and school circle sizes are fixed and work membership universal, so
  * that the network's size barely depends on the seed.
  *
  * Both are sized so that one run (three set-ups, a warm-up iteration and a
  * timed one) takes under a minute on 4 cores. `selftest` is a smaller
  * network for `run.py --selftest` only.
  */
object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("table6-cnn", LoCEC.Cnn,
      seed => SocialGen.Config(numUsers = 240, seed = seed, surveyedFrac = 0.5,
        pEmployed = 1.0, workSizeMin = 30, workSizeMax = 30,
        pEnrolled = 1.0, schoolSizeMin = 24, schoolSizeMax = 24)),
    Workload("dense-ego-xgb", LoCEC.Xgb,
      seed => SocialGen.Config(numUsers = 165, seed = seed, surveyedFrac = 0.15,
        pEmployed = 1.0, workSizeMin = 55, workSizeMax = 55, pWorkEdge = 0.5,
        schoolSizeMin = 24, schoolSizeMax = 24, pSchoolEdge = 0.3)),
    Workload("selftest", LoCEC.Cnn,
      seed => SocialGen.Config(numUsers = 150, seed = seed)))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}
