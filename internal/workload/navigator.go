package workload

import (
	"millibalance/internal/sim"
)

// successors lists each interaction's natural next steps in the RUBBoS
// navigation graph (view a story, then its comments; open a form, then
// submit it; and so on).
var successors = map[string][]string{
	"StoriesOfTheDay":         {"ViewStory", "BrowseCategories", "OlderStories"},
	"BrowseCategories":        {"BrowseStoriesByCategory"},
	"BrowseStoriesByCategory": {"ViewStory", "OlderStories"},
	"OlderStories":            {"ViewStory"},
	"ViewStory":               {"ViewComment", "PostCommentForm", "ViewStory"},
	"ViewComment":             {"ViewComment", "PostCommentForm", "ModerateCommentForm", "ViewStory"},
	"PostCommentForm":         {"StoreComment"},
	"StoreComment":            {"ViewStory", "StoriesOfTheDay"},
	"ModerateCommentForm":     {"StoreModerateLog"},
	"StoreModerateLog":        {"ViewComment", "StoriesOfTheDay"},
	"SubmitStoryForm":         {"StoreStory"},
	"StoreStory":              {"StoriesOfTheDay"},
	"SearchForm":              {"SearchInStories", "SearchInComments", "SearchInUsers"},
	"SearchInStories":         {"ViewStory", "SearchForm"},
	"SearchInComments":        {"ViewComment", "SearchForm"},
	"SearchInUsers":           {"SearchForm", "StoriesOfTheDay"},
	"RegisterUserForm":        {"RegisterUser"},
	"RegisterUser":            {"StoriesOfTheDay"},
	"AuthorLoginForm":         {"AuthorLogin"},
	"AuthorLogin":             {"AuthorTasks"},
	"AuthorTasks":             {"ReviewStories"},
	"ReviewStories":           {"AcceptStory", "RejectStory", "ReviewStories"},
	"AcceptStory":             {"ReviewStories", "StoriesOfTheDay"},
	"RejectStory":             {"ReviewStories", "StoriesOfTheDay"},
}

// Navigator walks the interaction mix as a Markov chain: with probability
// followProb it follows one of the current interaction's natural
// successors (restricted to those present in the mix); otherwise it
// samples the mix's stationary weights. The chain therefore produces
// session-like traces while preserving the configured mix proportions in
// the long run.
type Navigator struct {
	eng        *sim.Engine
	mix        Mix
	followProb float64
	succ       [][]int // per mix index, the mix indices of its successors
	cur        int     // -1 before the first step
}

// NewNavigator returns a navigator over the mix. followProb is clamped
// to [0, 1].
func NewNavigator(eng *sim.Engine, mix Mix, followProb float64) *Navigator {
	return newNavigator(eng, mix, followProb, successorIndex(mix))
}

// successorIndex resolves each interaction's natural successors to mix
// indices, in the order successors lists them, dropping those absent
// from the mix. Group builds it once and shares it across tens of
// thousands of client navigators.
func successorIndex(mix Mix) [][]int {
	byName := make(map[string]int, len(mix.Interactions))
	for i, it := range mix.Interactions {
		byName[it.Name] = i
	}
	succ := make([][]int, len(mix.Interactions))
	for i, it := range mix.Interactions {
		for _, s := range successors[it.Name] {
			if idx, ok := byName[s]; ok {
				succ[i] = append(succ[i], idx)
			}
		}
	}
	return succ
}

func newNavigator(eng *sim.Engine, mix Mix, followProb float64, succ [][]int) *Navigator {
	if followProb < 0 {
		followProb = 0
	}
	if followProb > 1 {
		followProb = 1
	}
	return &Navigator{eng: eng, mix: mix, followProb: followProb, succ: succ, cur: -1}
}

// Next advances the chain and returns the next interaction to issue.
func (n *Navigator) Next() *Interaction {
	next := -1
	if n.cur >= 0 && n.eng.Bernoulli(n.followProb) {
		next = n.pickSuccessor()
	}
	if next < 0 {
		next = n.eng.PickWeighted(n.mix.Weights)
	}
	n.cur = next
	return &n.mix.Interactions[next]
}

// pickSuccessor returns the index of a uniformly chosen natural successor
// of the current interaction that exists in the mix, or -1 when none do.
func (n *Navigator) pickSuccessor() int {
	candidates := n.succ[n.cur]
	if len(candidates) == 0 {
		return -1
	}
	return candidates[n.eng.Rand().IntN(len(candidates))]
}
